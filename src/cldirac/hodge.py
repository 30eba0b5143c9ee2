"""Conjugate-linear Hodge star and its degree-dependent unit rescaling.

The star is pinned down by the defining property  x ^ star(y) = <x, y> dv
against the orthonormal monomial basis, with the volume form

    dv = i^n th1^thb1^...^thn^thbn = i^(n^2) th1^..^thn ^ thb1^..^thbn,

the volume of the underlying real orthonormal coframe.  On a monomial basis
element the star is computed by solving the defining equation for the single
complementary coefficient.  In the int-key layout of fiber.py (the key of
th^I ^ thb^J is the word I | (J << n)) the complement of a key is
full ^ key, with the sign _COMPLEMENT_PARITY[key] of sorting the word
followed by its complement (`fiber._complement`, computed from the
reordering count, not hand-maintained), and the total degree is
key.bit_count().

tau = eps_k * star on total degree k, with eps_k = i^(k(k-1)+n), held as
its i-exponent (`epsilon_exponent`); tau is an isometry, squares to
(-1)^n, and is self-adjoint up to (-1)^n for the real part of the
hermitian metric.

So star, tau and tau_graded are phase maps: each sends a monomial to its
complement times a power of i, after conjugating the coefficient.  That
permutes and negates the slots of the stored canonical tuple
(`scalars._phase`), so one pass over the terms gives canonical
coefficients with no gcd, no sums and no ExactComplex.
"""

from __future__ import annotations

import functools

from .fiber import DegreeError, FiberContext, Form, _complement, _same_ctx, inner
from .scalars import _phase, real_part


def volume_form(ctx: FiberContext) -> Form:
    top = tuple(range(1, ctx.n + 1))
    # i^n times the inversion sign (-1)^(n(n-1)/2) collapses to i^(n^2)
    return Form(ctx, {(top, top): ctx.ipow(ctx.n * ctx.n)})


@functools.cache
def _degree_exponents(n: int, with_epsilon: bool) -> tuple:
    """The i-exponent of star on each total degree k = 0..2n, times eps_k
    when asked."""
    return tuple(n * n + (epsilon_exponent(k, n) if with_epsilon else 0)
                 for k in range(2 * n + 1))


def _star_terms(x: Form, exponents: tuple) -> Form:
    """conj(c) times i^exponents[k] on the complement of each monomial of
    total degree k."""
    n = x.ctx.n
    out = {}
    for key, c in x._terms.items():
        ckey, parity = _complement(key, n)
        # a monomial wedged with its complement is (-1)^parity th^top thb^top,
        # and dv = i^(n^2) th^top thb^top, so the coefficient is
        # i^(n^2) (-1)^parity.
        out[ckey] = _phase(c, exponents[key.bit_count()] + 2 * parity, True)
    return Form._exact(x.ctx, out)


def bar_star(x: Form) -> Form:
    """Conjugate-linear star on a pure (p, q) form; lands in (n-p, n-q)."""
    if x.is_zero():
        return x
    if not x.is_pure():
        raise DegreeError("star needs a pure (p, q) input")
    return _star_terms(x, _degree_exponents(x.ctx.n, False))


def epsilon_exponent(k: int, n: int) -> int:
    """The i-exponent of eps_k = i^(k(k-1)+n), mod 4: the one name of
    eps_k.  No range check, so the degree-shift identity below can be
    evaluated at k = -1 as a formal power."""
    return (k * (k - 1) + n) % 4


def epsilon_shift_identity(n: int, p: int) -> bool:
    """eps_{p+1} eps_{n+p}^{-1} (-1)^{n(p+1)+p}
       = (-1)^{n(n+1)/2}
       = eps_{p-1} eps_{n+p}^{-1} (-1)^{(n+1)(p-1)}   as unit scalars."""
    target = (2 * ((n * (n + 1) // 2) % 2)) % 4
    lhs = (epsilon_exponent(p + 1, n) - epsilon_exponent(n + p, n)
           + 2 * ((n * (p + 1) + p) % 2)) % 4
    rhs = (epsilon_exponent(p - 1, n) - epsilon_exponent(n + p, n)
           + 2 * (((n + 1) * (p - 1)) % 2)) % 4
    return lhs == target and rhs == target


def tau(x: Form) -> Form:
    """eps_k * star on a form of pure total degree k; conjugate-linear, so
    scalars pass through conjugated before the eps_k factor."""
    if x.is_zero():
        return x
    x.total_degree()        # raises on a mixed total degree
    return _star_terms(x, _degree_exponents(x.ctx.n, True))


def tau_graded(x: Form) -> Form:
    """tau extended by linearity over total-degree components (Clifford
    images are mixed-degree, so operator identities need this extension)."""
    return _star_terms(x, _degree_exponents(x.ctx.n, True))


def tau_adjoint_defect(x: Form, y: Form):
    """Re<tau x, y> - Re<x, (-1)^n tau y>; identically zero."""
    _same_ctx(x.ctx, y.ctx)
    n = x.ctx.n
    if not (x.is_zero() or y.is_zero()):
        kx, ky = x.total_degree(), y.total_degree()
        if kx + ky != 2 * n:
            raise DegreeError(f"need deg y = 2n - deg x, got {kx} and {ky}")
    lhs = real_part(inner(tau(x), y))
    rhs = real_part(inner(x, tau(y)))
    if n % 2:
        rhs = -rhs
    return lhs - rhs

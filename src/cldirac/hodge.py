"""Conjugate-linear Hodge star and its degree-dependent unit rescaling.

The star is pinned down by the defining property  x ^ star(y) = <x, y> dv
against the orthonormal monomial basis, with the volume form

    dv = i^n th1^thb1^...^thn^thbn = i^(n^2) th1^..^thn ^ thb1^..^thbn,

the volume of the underlying real orthonormal coframe.  On a monomial basis
element the star is computed by solving the defining equation for the single
complementary coefficient, so no sign table is hand-maintained.

tau = eps_k * star on total degree k, with eps_k = i^(k(k-1)+n); tau is an
isometry, squares to (-1)^n, and is self-adjoint up to (-1)^n for the real
part of the hermitian metric.
"""

from __future__ import annotations

from .fiber import DegreeError, FiberContext, Form, _complement
from .scalars import conj, real_part


def volume_form(ctx: FiberContext) -> Form:
    top = tuple(range(1, ctx.n + 1))
    # i^n times the inversion sign (-1)^(n(n-1)/2) collapses to i^(n^2)
    return Form(ctx, {(top, top): ctx.ipow(ctx.n * ctx.n)})


def _star_terms(x: Form) -> Form:
    ctx = x.ctx
    n = ctx.n
    out = {}
    for key, c in x._terms.items():
        ckey, parity = _complement(key, n)
        # a monomial wedged with its complement is (-1)^parity th^top thb^top,
        # and dv = i^(n^2) th^top thb^top, so the coefficient is
        # i^(n^2) (-1)^parity.
        out[ckey] = conj(c) * ctx.ipow(n * n + 2 * parity)
    return Form._of(ctx, out)


def bar_star(x: Form) -> Form:
    """Conjugate-linear star on a pure (p, q) form; lands in (n-p, n-q)."""
    if x.is_zero():
        return x
    if not x.is_pure():
        raise DegreeError("star needs a pure (p, q) input")
    return _star_terms(x)


def epsilon(k: int, n: int) -> complex:
    """eps_k = i^(k(k-1)+n), a fourth root of unity."""
    if not 0 <= k <= 2 * n:
        raise DegreeError(f"degree k = {k} out of range 0..{2 * n}")
    return (1 + 0j, 1j, -1 + 0j, -1j)[epsilon_exponent(k, n)]


def epsilon_exponent(k: int, n: int) -> int:
    """i-exponent of eps_k mod 4; no range check, so the degree-shift
    identity below can be evaluated at k = -1 as a formal power."""
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
    k = x.total_degree()
    return _star_terms(x).scale(x.ctx.ipow(epsilon_exponent(k, x.ctx.n)))


def tau_graded(x: Form) -> Form:
    """tau extended by linearity over total-degree components (Clifford
    images are mixed-degree, so operator identities need this extension)."""
    if x.is_zero():
        return x
    ctx = x.ctx
    acc = Form._of(ctx, {})
    for k, comp in x.degree_components().items():
        acc = acc + _star_terms(comp).scale(ctx.ipow(epsilon_exponent(k, ctx.n)))
    return acc


def tau_adjoint_defect(x: Form, y: Form):
    """Re<tau x, y> - Re<x, (-1)^n tau y>; identically zero."""
    from .fiber import _same_ctx, inner
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

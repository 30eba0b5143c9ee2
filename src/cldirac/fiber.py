"""Exterior algebra of the model fiber C^n in a fixed unitary coframe.

A form is a sparse sum of basis monomials th^I ^ thb^J, where I and J are
strictly increasing subsets of {1..n}, th^1..th^n is a unitary coframe of
the (1,0) part and thb^i its conjugate.  The basis monomials are orthonormal
for the hermitian inner product <x, y> (conjugate-linear in y).

A real covector gamma is stored through the coefficients a_i of its (0,1)
part gamma^{0,1} = sum a_i thb^i; the (1,0) part sum conj(a_i) th^i is forced
by conjugation and never stored.

A key (I, J) is stored as a pair of ints with bit i-1 set for index i, so
the overlap test of a wedge is an and, the merge an or, and the reordering
sign a popcount.  Only this module builds, unpacks or measures a key; the
public boundary (Form(ctx, terms), monomial, coeff, items, text) speaks in
increasing index tuples, and items() keeps graded-lex tuple order.

Every coefficient is an ExactComplex, the one scalar tower (scalars.py), so
identities hold with exactly zero defect.  Everything here is an immutable
value and every operation is a pure function, so trial sweeps can share
objects freely across threads.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .scalars import (
    EC_I,
    EC_ONE,
    EC_SQRT2,
    EC_ZERO,
    ExactComplex,
    _canon,
    _coerce,
    conj,
    is_zero,
    scalar_text,
)


class ContextMismatchError(ValueError):
    """Operands built under different fiber contexts."""


class DegreeError(ValueError):
    """Bidegree out of range, impure input, or mismatched degrees."""


class ChiralityError(ValueError):
    """Spinor chirality missing, inconsistent, or incompatible."""


_I_POWERS = (EC_ONE, EC_I, -EC_ONE, -EC_I)


@dataclass(frozen=True)
class FiberContext:
    """Model fiber C^n; its scalars are ExactComplex values in Q(i, sqrt2)."""

    n: int

    zero = EC_ZERO
    one = EC_ONE
    i = EC_I
    sqrt2 = EC_SQRT2

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"complex dimension must be >= 1, got {self.n}")

    def coerce(self, x) -> ExactComplex:
        """x as a scalar; ints and Fractions are taken in, anything else
        (a float, say) raises TypeError."""
        z = _coerce(x)
        if z is None:
            raise TypeError(f"expected int or Fraction, got {type(x).__name__}")
        return z

    def rational(self, num, den=1) -> ExactComplex:
        return ExactComplex(Fraction(num, den))

    def ipow(self, e: int) -> ExactComplex:
        """i**e."""
        return _I_POWERS[e % 4]


def _same_ctx(a: FiberContext, b: FiberContext):
    if a is not b and a != b:
        raise ContextMismatchError(f"context mismatch: {a} vs {b}")


def _mask(t, n) -> int:
    """Key of a strictly increasing index tuple in 1..n."""
    t = tuple(t)
    if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"index tuple {t} not strictly increasing")
    if t and (t[0] < 1 or t[-1] > n):
        raise ValueError(f"index tuple {t} out of range 1..{n}")
    return sum(1 << (i - 1) for i in t)


def _indices(m: int) -> tuple:
    """Increasing index tuple of a key."""
    return tuple(i for i in range(1, m.bit_length() + 1) if m >> (i - 1) & 1)


@functools.cache
def _subset_keys(n: int, k: int) -> tuple:
    """Keys of the k-subsets of 1..n, in the order of subsets_increasing."""
    return tuple(map(sum, itertools.combinations([1 << i for i in range(n)], k)))


def _swaps(a: int, b: int) -> int:
    """Pairs (i in a, j in b) with i > j: the transpositions that sort the
    indices of a followed by those of b."""
    count = 0
    while b:
        low = b & -b
        count += (a & ~(2 * low - 1)).bit_count()
        b ^= low
    return count


def _term_sort_key(key):
    (ti, tj) = key
    return (len(ti), ti, len(tj), tj)


class Form:
    """Sparse element of the complexified exterior algebra of the fiber."""

    __slots__ = ("ctx", "_terms")

    def __init__(self, ctx: FiberContext, terms=None):
        canon = {}
        if terms:
            n = ctx.n
            for (ti, tj), c in terms.items():
                key = (_mask(ti, n), _mask(tj, n))
                c = ctx.coerce(c)
                if not is_zero(c):
                    canon[key] = c
        self.ctx = ctx
        self._terms = canon

    @classmethod
    def _of(cls, ctx: FiberContext, terms: dict) -> "Form":
        """Form built by an internal operation, whose keys are masks and
        whose values are ExactComplex by construction: only the zero
        coefficients are dropped, nothing is re-checked.
        The new Form takes ownership of the terms dict."""
        f = object.__new__(cls)
        f.ctx = ctx
        f._terms = terms if all(terms.values()) else {
            key: c for key, c in terms.items() if c}
        return f

    # -- inspection ---------------------------------------------------------

    def items(self):
        """(key, coefficient) pairs, keys as index tuples in graded-lex
        order."""
        return sorted((((_indices(ti), _indices(tj)), c)
                       for (ti, tj), c in self._terms.items()),
                      key=lambda kv: _term_sort_key(kv[0]))

    def coeff(self, ti, tj):
        n = self.ctx.n
        return self._terms.get((_mask(ti, n), _mask(tj, n)), self.ctx.zero)

    def is_zero(self) -> bool:
        return not self._terms

    def num_terms(self) -> int:
        return len(self._terms)

    def bidegrees(self) -> set:
        """The bidegrees (p, q) of the terms."""
        return {(ti.bit_count(), tj.bit_count()) for ti, tj in self._terms}

    def is_pure(self) -> bool:
        return len(self.bidegrees()) <= 1

    def bidegree(self):
        """(p, q) of a pure nonzero form."""
        degs = self.bidegrees()
        if len(degs) != 1:
            raise DegreeError("form is zero or of mixed bidegree")
        return degs.pop()

    def total_degree(self) -> int:
        degs = {p + q for p, q in self.bidegrees()}
        if len(degs) != 1:
            raise DegreeError("form is zero or of mixed total degree")
        return degs.pop()

    def degree_components(self):
        out = {}
        for key, c in self._terms.items():
            out.setdefault(key[0].bit_count() + key[1].bit_count(), {})[key] = c
        return {k: Form._of(self.ctx, t) for k, t in sorted(out.items())}

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        _same_ctx(self.ctx, other.ctx)
        terms = dict(self._terms)
        for key, c in other._terms.items():
            acc = terms.get(key)
            terms[key] = c if acc is None else acc + c
        return Form._of(self.ctx, terms)

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        _same_ctx(self.ctx, other.ctx)
        terms = dict(self._terms)
        for key, c in other._terms.items():
            acc = terms.get(key)
            terms[key] = -c if acc is None else acc - c
        return Form._of(self.ctx, terms)

    def __neg__(self):
        return Form._of(self.ctx, {k: -c for k, c in self._terms.items()})

    def scale(self, c):
        c = self.ctx.coerce(c)
        return Form._of(self.ctx, {k: v * c for k, v in self._terms.items()})

    def __rmul__(self, other):
        if isinstance(other, Form):
            return NotImplemented
        return self.scale(other)

    def conjugate(self):
        """Structural conjugation th <-> thb with conjugated coefficients."""
        terms = {}
        for (ti, tj), c in self._terms.items():
            sign = ti.bit_count() * tj.bit_count() % 2
            val = conj(c)
            terms[(tj, ti)] = -val if sign else val
        return Form._of(self.ctx, terms)

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self.ctx == other.ctx and self._terms == other._terms

    __hash__ = None

    # -- display ------------------------------------------------------------

    @staticmethod
    def _key_text(key):
        ti, tj = key
        parts = [f"th{i}" for i in ti] + [f"thb{j}" for j in tj]
        return "^".join(parts) if parts else "1"

    def text(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"({scalar_text(c)})*{self._key_text(k)}"
                          for k, c in self.items())

    def __repr__(self):
        return f"Form({self.text()})"


def zero_form(ctx: FiberContext) -> Form:
    return Form._of(ctx, {})


def monomial(ctx: FiberContext, ti, tj, coeff=1) -> Form:
    return Form(ctx, {(tuple(ti), tuple(tj)): coeff})


def scalar_form(ctx: FiberContext, c) -> Form:
    return Form(ctx, {((), ()): c})


def subsets_increasing(n: int, k: int):
    return itertools.combinations(range(1, n + 1), k)


def basis_forms(ctx: FiberContext, p: int, q: int):
    """All basis monomials of bidegree (p, q), in index order."""
    _check_bidegree(ctx, p, q)
    return [monomial(ctx, ti, tj, 1)
            for ti in subsets_increasing(ctx.n, p)
            for tj in subsets_increasing(ctx.n, q)]


def _check_bidegree(ctx, p, q):
    if not (0 <= p <= ctx.n and 0 <= q <= ctx.n):
        raise DegreeError(f"bidegree ({p}, {q}) out of range for n = {ctx.n}")


@dataclass(frozen=True)
class Covector:
    """Real covector gamma stored via its (0,1) coefficients."""

    ctx: FiberContext
    a: tuple

    def __post_init__(self):
        if len(self.a) != self.ctx.n:
            raise ValueError(f"need {self.ctx.n} coefficients, got {len(self.a)}")
        object.__setattr__(self, "a", tuple(self.ctx.coerce(x) for x in self.a))

    def part01(self) -> Form:
        return Form._of(self.ctx, {(0, 1 << k): c for k, c in enumerate(self.a)})

    def part10(self) -> Form:
        return Form._of(self.ctx,
                        {(1 << k, 0): conj(c) for k, c in enumerate(self.a)})

    def norm_sq(self):
        """|gamma|^2 = 2 sum |a_i|^2 for the real covector."""
        acc = self.ctx.zero
        for c in self.a:
            acc = acc + c * conj(c)
        return acc + acc

    def is_zero(self) -> bool:
        return all(is_zero(c) for c in self.a)

    def __add__(self, other):
        if not isinstance(other, Covector):
            return NotImplemented
        _same_ctx(self.ctx, other.ctx)
        return Covector(self.ctx, tuple(x + y for x, y in zip(self.a, other.a)))

    def scale_real(self, t):
        """Scaling by a real number keeps the covector real."""
        t = self.ctx.coerce(t)
        return Covector(self.ctx, tuple(x * t for x in self.a))


def wedge(x: Form, y: Form) -> Form:
    """Exterior product; bilinear, graded-anticommutative, associative."""
    _same_ctx(x.ctx, y.ctx)
    out = {}
    for (ti, tj), c in x._terms.items():
        qx = tj.bit_count()
        for (tk, tl), d in y._terms.items():
            if ti & tk or tj & tl:
                continue
            val = c * d
            if (qx * tk.bit_count() + _swaps(ti, tk) + _swaps(tj, tl)) % 2:
                val = -val
            key = (ti | tk, tj | tl)
            acc = out.get(key)
            out[key] = val if acc is None else acc + val
    return Form._of(x.ctx, out)


def contract(g: Covector, x: Form) -> Form:
    """Contraction by the metric dual of gamma^{1,0}.

    Conjugate-linear in g, complex-linear in x; an antiderivation that
    removes thb indices only (q drops by 1, p is unchanged).
    """
    _same_ctx(g.ctx, x.ctx)
    abar = [conj(c) for c in g.a]
    out = {}
    for (ti, tj), c in x._terms.items():
        base = -c if ti.bit_count() % 2 else c
        rest, k = tj, 0
        while rest:
            low = rest & -rest
            rest ^= low
            aj = abar[low.bit_length() - 1]
            if not is_zero(aj):
                val = base * aj
                if k % 2:
                    val = -val
                key = (ti, tj ^ low)
                acc = out.get(key)
                out[key] = val if acc is None else acc + val
            k += 1
    return Form._of(x.ctx, out)


def inner(x: Form, y: Form):
    """Hermitian inner product; the monomial basis is orthonormal and the
    second slot is conjugate-linear."""
    _same_ctx(x.ctx, y.ctx)
    acc = x.ctx.zero
    if len(y._terms) < len(x._terms):
        for key, d in y._terms.items():
            c = x._terms.get(key)
            if c is not None:
                acc = acc + c * d.conjugate()
        return acc
    for key, c in x._terms.items():
        d = y._terms.get(key)
        if d is not None:
            acc = acc + c * d.conjugate()
    return acc


def _complement(key, n: int):
    """Key of the complementary monomial th^Ic ^ thb^Jc of the key (I, J),
    and the parity of (th^I thb^J) ^ (th^Ic thb^Jc) = (-1)^parity
    th^top thb^top."""
    ti, tj = key
    full = (1 << n) - 1
    tic, tjc = full ^ ti, full ^ tj
    parity = (tj.bit_count() * tic.bit_count()
              + _swaps(ti, tic) + _swaps(tj, tjc)) % 2
    return (tic, tjc), parity


def _strip_top(f: Form) -> Form:
    """Divide a (n, q)-supported form by th^1^..^th^n on the left."""
    top = (1 << f.ctx.n) - 1
    out = {}
    for (ti, tj), c in f._terms.items():
        if ti != top:
            raise DegreeError("expected a form divisible by the top (n,0) frame")
        out[(0, tj)] = c
    return Form._of(f.ctx, out)


# -- randomized inputs -------------------------------------------------------
#
# Coefficients have numerator in [-3, 3] and denominator in {1, 2, 3} per
# real/imaginary part.  Scalars are built straight into the canonical int
# form of scalars.py; small rationals keep the ints short (a few machine
# words) across long identity chains.  Everything is deterministic in the
# seed.

def _rng(seed) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))


def random_scalar(ctx: FiberContext, rng: random.Random) -> ExactComplex:
    """random_rational(rng) + random_rational(rng) * i, with the same draws."""
    ra, qa = rng.randint(-3, 3), rng.choice((1, 2, 3))
    rb, qb = rng.randint(-3, 3), rng.choice((1, 2, 3))
    return _canon(ra * qb, rb * qa, 0, 0, qa * qb)


def random_unit_scalar(ctx: FiberContext, seed) -> ExactComplex:
    """Unit-modulus scalar z^2/|z|^2 for a Gaussian integer z, which has
    modulus exactly 1 in Q(i)."""
    rng = _rng(seed)
    while True:
        a = rng.randint(-3, 3)
        b = rng.randint(-3, 3)
        if a or b:
            break
    return _canon(a * a - b * b, 2 * a * b, 0, 0, a * a + b * b)


def random_form(ctx: FiberContext, p: int, q: int, seed) -> Form:
    """Random pure (p, q) form; deterministic in seed; zero coefficients are
    dropped, so the term count is at most C(n,p)*C(n,q)."""
    _check_bidegree(ctx, p, q)
    rng = _rng(seed)
    tjs = _subset_keys(ctx.n, q)
    terms = {}
    for ti in _subset_keys(ctx.n, p):
        for tj in tjs:
            terms[(ti, tj)] = random_scalar(ctx, rng)
    return Form._of(ctx, terms)


def random_covector(ctx: FiberContext, seed) -> Covector:
    rng = _rng(seed)
    return Covector(ctx, tuple(random_scalar(ctx, rng) for _ in range(ctx.n)))


def random_nonzero_covector(ctx: FiberContext, rng) -> Covector:
    rng = _rng(rng)
    while True:
        g = random_covector(ctx, rng)
        if not g.is_zero():
            return g

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
sign a popcount.  Only this module and hodge.py build, unpack or measure a
key; the public boundary (Form(ctx, terms), monomial, coeff, items, text)
speaks in increasing index tuples, and items() keeps graded-lex tuple order.

Reordering signs come from two parity tables indexed by one half-key (the
I or the J of a key), filled on first use and the same for every n:
_ODD_BELOW turns the sign of a wedge into two popcounts, and
_COMPLEMENT_PARITY gives the sign of a monomial against its complement,
which fixes the Hodge star.

Every coefficient is an ExactComplex, the one scalar tower (scalars.py), so
identities hold with exactly zero defect.  wedge, contract, inner and
clifford (the c(gamma) of clifford.py) sum raw products of the scalar
tuples in a private accumulator and canonicalise once per output
coefficient; scaling by a power of i is a phase and takes no gcd.
Everything here is an immutable value and every operation is a pure
function, so trial sweeps can share objects freely across threads.
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
    _coerce,
    _dot_conj,
    _finish,
    _mul_into,
    _phased,
    _signed,
    _unit_exponent,
    conj,
    is_zero,
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


class _HalfKeyTable(dict):
    """A parity table over half-keys, each entry computed on first use."""

    def __init__(self, entry):
        super().__init__()
        self.entry = entry

    def __missing__(self, b):
        value = self[b] = self.entry(b)
        return value


def _odd_below(b: int) -> int:
    """The mask of the indices i with an odd number of indices of b below
    i; negative when b has odd size, since every i above b then counts."""
    mask = 0
    while b:
        low = b & -b
        mask ^= -(low << 1)     # all bits above the lowest bit of b
        b ^= low
    return mask


# _swaps(a, b) % 2 == (a & _ODD_BELOW[b]).bit_count() % 2
_ODD_BELOW = _HalfKeyTable(_odd_below)
# _COMPLEMENT_PARITY[b] == _swaps(b, full ^ b) % 2 for every full >= b: an
# index above all of b contributes no transposition
_COMPLEMENT_PARITY = _HalfKeyTable(
    lambda b: _swaps(b, ((1 << b.bit_length()) - 1) ^ b) % 2)


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
        return cls._exact(ctx, terms if all(terms.values()) else {
            key: c for key, c in terms.items() if c})

    @classmethod
    def _exact(cls, ctx: FiberContext, terms: dict) -> "Form":
        """Form of an internal operation whose terms are nonzero by
        construction (a kernel's finished accumulator, say); nothing is
        checked.  The new Form takes ownership of the terms dict."""
        f = object.__new__(cls)
        f.ctx = ctx
        f._terms = terms
        return f

    # -- inspection ---------------------------------------------------------

    def items(self):
        """(key, coefficient) pairs, keys as index tuples in graded-lex
        order."""
        return sorted((((_indices(ti), _indices(tj)), c)
                       for (ti, tj), c in self._terms.items()),
                      key=lambda kv: _term_sort_key(kv[0]))

    def is_zero(self) -> bool:
        return not self._terms

    def bidegrees(self) -> set:
        """The bidegrees (p, q) of the terms."""
        return {(ti.bit_count(), tj.bit_count()) for ti, tj in self._terms}

    def is_pure(self) -> bool:
        return len(self.bidegrees()) <= 1

    def total_degree(self) -> int:
        degs = {p + q for p, q in self.bidegrees()}
        if len(degs) != 1:
            raise DegreeError("form is zero or of mixed total degree")
        return degs.pop()

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
        return Form._exact(self.ctx, {k: -c for k, c in self._terms.items()})

    def scale(self, c):
        c = self.ctx.coerce(c)
        e = _unit_exponent(c)
        if e is not None:
            return Form._exact(self.ctx, {k: _phased(v, e)
                                          for k, v in self._terms.items()})
        if not c:
            return Form._exact(self.ctx, {})
        # a product of nonzero field elements is nonzero
        return Form._exact(self.ctx, {k: v * c for k, v in self._terms.items()})

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
        return Form._exact(self.ctx, terms)

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
        return " + ".join(f"({c.text()})*{self._key_text(k)}"
                          for k, c in self.items())

    def __repr__(self):
        return f"Form({self.text()})"


def zero_form(ctx: FiberContext) -> Form:
    return Form._exact(ctx, {})


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

    def norm_sq(self):
        """|gamma|^2 = 2 sum |a_i|^2 for the real covector."""
        acc = self.ctx.zero
        for c in self.a:
            acc = acc + c * conj(c)
        return acc + acc

    def is_zero(self) -> bool:
        return all(is_zero(c) for c in self.a)

    @functools.cached_property
    def _clifford_steps(self) -> list:
        """(bit of thb^j, the bits below it, tuples of +-a_j, tuples of
        -+conj(a_j)) for each j with a_j != 0: the factors of the Clifford
        kernel, made once per covector."""
        return [(1 << j, (1 << j) - 1, _signed(a), _signed(a, True)[::-1])
                for j, a in enumerate(self.a) if a]

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
    """Exterior product; bilinear, graded-anticommutative, associative.

    The sign of th^I thb^J ^ th^K thb^L is (-1)^(|J||K|) times the parities
    of sorting I then K and J then L."""
    _same_ctx(x.ctx, y.ctx)
    odd_below = _ODD_BELOW
    xs = [(ti, tj, tj.bit_count() & 1, c._t) for (ti, tj), c in x._terms.items()]
    acc = {}
    for (tk, tl), d in y._terms.items():
        ok, ol, pk = odd_below[tk], odd_below[tl], tk.bit_count() & 1
        d = _signed(d)
        for ti, tj, qx, c in xs:
            if ti & tk or tj & tl:
                continue
            sign = (ti & ok).bit_count() + (tj & ol).bit_count() + (qx & pk)
            _mul_into(acc, (ti | tk, tj | tl), c, d[sign & 1])
    return Form._exact(x.ctx, _finish(acc))


def contract(g: Covector, x: Form) -> Form:
    """Contraction by the metric dual of gamma^{1,0}.

    Conjugate-linear in g, complex-linear in x; an antiderivation that
    removes thb indices only (q drops by 1, p is unchanged).  Removing thb^j
    passes the |I| th factors and the thb factors of J below j.
    """
    _same_ctx(g.ctx, x.ctx)
    abar = [_signed(c, True) if c else None for c in g.a]
    acc = {}
    for (ti, tj), c in x._terms.items():
        s = c._t
        rest, k = tj, ti.bit_count()
        while rest:
            low = rest & -rest
            rest ^= low
            aj = abar[low.bit_length() - 1]
            if aj is not None:
                _mul_into(acc, (ti, tj ^ low), s, aj[k & 1])
            k += 1
    return Form._exact(x.ctx, _finish(acc))


def clifford(g: Covector, x: Form) -> Form:
    """c(gamma) x = sqrt2 (gamma^{0,1} ^ x - contract(gamma^{1,0}, x)) on a
    form with no th factors (p = 0), in one pass over the terms of x: thb^j
    either joins J (coefficient a_j) or leaves it (coefficient -conj(a_j)),
    with the sign of the thb factors of J below j in both cases; sqrt2 is
    applied once per output coefficient."""
    _same_ctx(g.ctx, x.ctx)
    steps = g._clifford_steps
    acc = {}
    for (ti, tj), c in x._terms.items():
        if ti:
            raise DegreeError("Clifford action needs a (0, q) input")
        s = c._t
        for low, below, join, leave in steps:
            coef = leave if tj & low else join
            _mul_into(acc, (0, tj ^ low), s, coef[(tj & below).bit_count() & 1])
    return Form._exact(x.ctx, _finish(acc, sqrt2=True))


def inner(x: Form, y: Form):
    """Hermitian inner product; the monomial basis is orthonormal and the
    second slot is conjugate-linear."""
    _same_ctx(x.ctx, y.ctx)
    xt, yt = x._terms, y._terms
    if len(yt) < len(xt):
        return _dot_conj((xt[key], d) for key, d in yt.items() if key in xt)
    return _dot_conj((c, yt[key]) for key, c in xt.items() if key in yt)


def _complement(key, n: int):
    """Key of the complementary monomial th^Ic ^ thb^Jc of the key (I, J),
    and the parity of (th^I thb^J) ^ (th^Ic thb^Jc) = (-1)^parity
    th^top thb^top."""
    ti, tj = key
    full = (1 << n) - 1
    tic = full ^ ti
    parity = (tj.bit_count() * tic.bit_count()
              + _COMPLEMENT_PARITY[ti] + _COMPLEMENT_PARITY[tj]) % 2
    return (tic, full ^ tj), parity


def _strip_top(f: Form) -> Form:
    """Divide a (n, q)-supported form by th^1^..^th^n on the left."""
    top = (1 << f.ctx.n) - 1
    out = {}
    for (ti, tj), c in f._terms.items():
        if ti != top:
            raise DegreeError("expected a form divisible by the top (n,0) frame")
        out[(0, tj)] = c
    return Form._exact(f.ctx, out)


# -- randomized inputs -------------------------------------------------------
#
# Coefficients have numerator in [-3, 3] and denominator in {1, 2, 3} per
# real/imaginary part: the draws of rng.randint(-3, 3) and
# rng.choice((1, 2, 3)).  Those draws are made here with getrandbits and the
# rejection rule of Random._randbelow (draw bit_length(m) bits until the
# value is below m), so the values and the state of the generator are the
# same as through randint and choice, at a fraction of the calls; each of
# the 441 possible scalars is made once, in _RANDOM_SCALARS.  Small
# rationals keep the ints short (a few machine words) across long identity
# chains.  Everything is deterministic in the seed.

def _rng(seed) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))


# ra/qa + (rb/qb) i for the draws (ra + 3, qa - 1, rb + 3, qb - 1), in
# mixed radix 7, 3, 7, 3
_RANDOM_SCALARS = tuple(
    ExactComplex(Fraction(ra, qa), Fraction(rb, qb))
    for ra in range(-3, 4) for qa in (1, 2, 3)
    for rb in range(-3, 4) for qb in (1, 2, 3))
# z^2 / |z|^2 for z = a + b i, at 7 (a + 3) + (b + 3); None at z = 0
_UNIT_SCALARS = tuple(
    ExactComplex(Fraction(a * a - b * b, a * a + b * b),
                 Fraction(2 * a * b, a * a + b * b)) if a or b else None
    for a in range(-3, 4) for b in range(-3, 4))


def _draw_scalar(bits) -> ExactComplex:
    """random_scalar on the getrandbits of a Random."""
    ra = bits(3)
    while ra == 7:
        ra = bits(3)
    qa = bits(2)
    while qa == 3:
        qa = bits(2)
    rb = bits(3)
    while rb == 7:
        rb = bits(3)
    qb = bits(2)
    while qb == 3:
        qb = bits(2)
    return _RANDOM_SCALARS[((ra * 3 + qa) * 7 + rb) * 3 + qb]


def random_scalar(ctx: FiberContext, rng: random.Random) -> ExactComplex:
    """random_rational(rng) + random_rational(rng) * i, with the same draws."""
    return _draw_scalar(rng.getrandbits)


def random_unit_scalar(ctx: FiberContext, seed) -> ExactComplex:
    """Unit-modulus scalar z^2/|z|^2 for a Gaussian integer z = a + b i,
    with a and b drawn by rng.randint(-3, 3) until z != 0; it has modulus
    exactly 1 in Q(i)."""
    bits = _rng(seed).getrandbits
    while True:
        a = bits(3)
        while a == 7:
            a = bits(3)
        b = bits(3)
        while b == 7:
            b = bits(3)
        z = _UNIT_SCALARS[7 * a + b]
        if z is not None:
            return z


def random_form(ctx: FiberContext, p: int, q: int, seed) -> Form:
    """Random pure (p, q) form; deterministic in seed; zero coefficients are
    dropped, so the term count is at most C(n,p)*C(n,q)."""
    _check_bidegree(ctx, p, q)
    bits = _rng(seed).getrandbits
    tjs = _subset_keys(ctx.n, q)
    terms = {}
    for ti in _subset_keys(ctx.n, p):
        for tj in tjs:
            z = _draw_scalar(bits)
            if z:
                terms[(ti, tj)] = z
    return Form._exact(ctx, terms)


def random_covector(ctx: FiberContext, seed) -> Covector:
    rng = _rng(seed)
    return Covector(ctx, tuple(random_scalar(ctx, rng) for _ in range(ctx.n)))


def random_nonzero_covector(ctx: FiberContext, rng) -> Covector:
    rng = _rng(rng)
    while True:
        g = random_covector(ctx, rng)
        if not g.is_zero():
            return g

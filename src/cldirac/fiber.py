"""Exterior algebra of the model fiber C^n in a fixed unitary coframe.

A form is a sparse sum of basis monomials th^I ^ thb^J, where I and J are
strictly increasing subsets of {1..n}, th^1..th^n is a unitary coframe of
the (1,0) part and thb^i its conjugate.  The basis monomials are orthonormal
for the hermitian inner product <x, y> (conjugate-linear in y).

A real covector gamma is stored through the coefficients a_i of its (0,1)
part gamma^{0,1} = sum a_i thb^i; the (1,0) part sum conj(a_i) th^i is forced
by conjugation and never stored.

A monomial is stored as one int key, the word of its 2n letters
th^1 < .. < th^n < thb^1 < .. < thb^n: bit i-1 is th^i and bit n+j-1 is
thb^j, so the key of th^I ^ thb^J is I | (J << n) for the half-keys I and J
(bit i-1 set for index i).  With the th letters before the thb letters,
every reordering sign is the parity of sorting one word after another:
the sign of a wedge is one popcount against _ODD_BELOW, the complement
of a key is full ^ key with sign _COMPLEMENT_PARITY[key] (which fixes the
Hodge star), the total degree is key.bit_count(), and removing thb^j
passes the letters below it.  The two parity tables are indexed by a key,
filled on first use and the same for every n.  Only this module and
hodge.py build, unpack or measure a key; the public boundary
(Form(ctx, terms), monomial, items, text) speaks in increasing index
tuples, and items() keeps graded-lex tuple order.

Each stored coefficient is the canonical nonzero int tuple of the one
scalar tower (scalars.py), so identities hold with exactly zero defect and
two Forms are equal exactly when their term dicts are.  An ExactComplex is
made only at the public boundary: Form(ctx, terms) takes scalars in,
items() and inner() hand them out, and text() prints them.

Two kinds of kernel build a Form's terms.  A kernel whose products can
land on one key sums raw products of the tuples in a private accumulator
and canonicalises once per output coefficient: contract, clifford (the
c(gamma) of clifford.py) and a wedge of two multi-term sides.  A kernel
that sends each input term to its own output key writes each coefficient
directly, already canonical: the star, tau and tau_graded of hodge.py,
Form.scale, and a wedge with a one-term side, whose coefficient is a
phase when the one term's coefficient is a power of i and one exact
product otherwise.  A phase takes no gcd.  A wedge of two multi-term
sides buckets x's terms by their th half and lets each key of y visit
only the buckets whose th half is disjoint from its own (the list is
made once per th half of y), so at n = 7 most of the key pairs that
cannot multiply are never tested.  A covector makes its Clifford and
contraction factors once, when it is made.
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
    _ONE,
    _ZERO,
    ExactComplex,
    _add,
    _coerce,
    _dot_conj,
    _finish,
    _make,
    _mul,
    _mul_into,
    _neg,
    _phase,
    _signed,
    _sub,
    _unit_exponent,
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
    """Increasing index tuple of a half-key."""
    return tuple(i for i in range(1, m.bit_length() + 1) if m >> (i - 1) & 1)


@functools.cache
def _subset_keys(n: int, k: int) -> tuple:
    """Half-keys of the k-subsets of 1..n, in lexicographic order of their
    increasing index tuples."""
    return tuple(map(sum, itertools.combinations([1 << i for i in range(n)], k)))


@functools.cache
def _thb_keys(n: int, q: int) -> tuple:
    """Keys of the thb^J for the q-subsets J of 1..n, in the order of
    _subset_keys."""
    return tuple(_key(0, tj, n) for tj in _subset_keys(n, q))


def _swaps(a: int, b: int) -> int:
    """Pairs (i in a, j in b) with i > j: the transpositions that sort the
    letters of a followed by those of b."""
    count = 0
    while b:
        low = b & -b
        count += (a & ~(2 * low - 1)).bit_count()
        b ^= low
    return count


class _KeyTable(dict):
    """A parity table over keys, each entry computed on first use."""

    def __init__(self, entry):
        super().__init__()
        self.entry = entry

    def __missing__(self, b):
        value = self[b] = self.entry(b)
        return value


def _odd_below(b: int) -> int:
    """The mask of the letters with an odd number of letters of b below
    them; negative when b has odd size, since every letter above b then
    counts."""
    mask = 0
    while b:
        low = b & -b
        mask ^= -(low << 1)     # all bits above the lowest bit of b
        b ^= low
    return mask


# _swaps(a, b) % 2 == (a & _ODD_BELOW[b]).bit_count() % 2
_ODD_BELOW = _KeyTable(_odd_below)
# _COMPLEMENT_PARITY[b] == _swaps(b, full ^ b) % 2 for every full >= b: a
# letter above all of b contributes no transposition
_COMPLEMENT_PARITY = _KeyTable(
    lambda b: _swaps(b, ((1 << b.bit_length()) - 1) ^ b) % 2)


def _key(ti: int, tj: int, n: int) -> int:
    """The key of th^I ^ thb^J from the half-keys I and J."""
    return ti | tj << n


def _halves(key: int, n: int) -> tuple:
    """The half-keys (I, J) of a key."""
    return key & ((1 << n) - 1), key >> n


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
                key = _key(_mask(ti, n), _mask(tj, n), n)
                c = ctx.coerce(c)._t
                if c != _ZERO:
                    canon[key] = c
        self.ctx = ctx
        self._terms = canon

    @classmethod
    def _exact(cls, ctx: FiberContext, terms: dict) -> "Form":
        """Form of an internal operation whose terms are int keys and
        canonical nonzero tuples by construction (a kernel's finished
        accumulator, say); nothing is checked.  The new Form takes
        ownership of the terms dict."""
        f = object.__new__(cls)
        f.ctx = ctx
        f._terms = terms
        return f

    # -- inspection ---------------------------------------------------------

    def items(self):
        """(key, coefficient) pairs, keys as index tuples in graded-lex
        order."""
        n = self.ctx.n
        return sorted(((tuple(map(_indices, _halves(key, n))), _make(c))
                       for key, c in self._terms.items()),
                      key=lambda kv: _term_sort_key(kv[0]))

    def is_zero(self) -> bool:
        return not self._terms

    def bidegrees(self) -> set:
        """The bidegrees (p, q) of the terms."""
        n = self.ctx.n
        return {(ti.bit_count(), tj.bit_count())
                for ti, tj in (_halves(key, n) for key in self._terms)}

    def is_pure(self) -> bool:
        return len(self.bidegrees()) <= 1

    def total_degree(self) -> int:
        degs = {key.bit_count() for key in self._terms}
        if len(degs) != 1:
            raise DegreeError("form is zero or of mixed total degree")
        return degs.pop()

    # -- linear structure ---------------------------------------------------

    def _combine(self, other, op, single):
        """The terms of self op other: op on a shared key, single on a key
        of other alone (tuple, which returns its tuple argument itself,
        for a sum); a coefficient that cancels is dropped."""
        _same_ctx(self.ctx, other.ctx)
        terms = dict(self._terms)
        for key, c in other._terms.items():
            acc = terms.get(key)
            if acc is None:
                terms[key] = single(c)
            else:
                c = op(acc, c)
                if c == _ZERO:
                    del terms[key]
                else:
                    terms[key] = c
        return Form._exact(self.ctx, terms)

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self._combine(other, _add, tuple)

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self._combine(other, _sub, _neg)

    def __neg__(self):
        return Form._exact(self.ctx, {k: _neg(c) for k, c in self._terms.items()})

    def scale(self, c):
        if c.__class__ is int:
            if c == 1:
                return self
            if c == -1:
                return -self
        t = self.ctx.coerce(c)._t
        e = _unit_exponent(t)
        if e == 0:
            return self
        if e is not None:
            return Form._exact(self.ctx, {k: _phase(v, e)
                                          for k, v in self._terms.items()})
        if t == _ZERO:
            return Form._exact(self.ctx, {})
        # a product of nonzero field elements is nonzero
        return Form._exact(self.ctx, {k: _mul(v, t) for k, v in self._terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return ((self.ctx is other.ctx or self.ctx == other.ctx)
                and self._terms == other._terms)

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


def _monomial(ctx: FiberContext, ti: int, tj: int, t=_ONE) -> Form:
    """t th^I ^ thb^J for the half-keys I and J and a canonical nonzero
    tuple t; nothing is checked."""
    return Form._exact(ctx, {_key(ti, tj, ctx.n): t})


def zero_form(ctx: FiberContext) -> Form:
    return Form._exact(ctx, {})


def monomial(ctx: FiberContext, ti, tj, coeff=1) -> Form:
    return Form(ctx, {(tuple(ti), tuple(tj)): coeff})


def scalar_form(ctx: FiberContext, c) -> Form:
    return Form(ctx, {((), ()): c})


def basis_forms(ctx: FiberContext, p: int, q: int):
    """All basis monomials of bidegree (p, q), in index order."""
    _check_bidegree(ctx, p, q)
    tjs = _subset_keys(ctx.n, q)
    return [_monomial(ctx, ti, tj) for ti in _subset_keys(ctx.n, p) for tj in tjs]


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
        self._set_factors()

    @classmethod
    def _exact(cls, ctx: FiberContext, a: tuple) -> "Covector":
        """Covector of n ExactComplex coefficients; nothing is checked."""
        g = object.__new__(cls)
        object.__setattr__(g, "ctx", ctx)
        object.__setattr__(g, "a", a)
        g._set_factors()
        return g

    def _set_factors(self):
        """The factors of the Clifford and contraction kernels, made once:
        _factors[j] is None when a_j = 0, else (bit of thb^j, the bits
        below it, tuples of +-a_j, tuples of -+conj(a_j)), and
        _clifford_steps lists the entries that are not None."""
        bit = 1 << self.ctx.n
        factors, steps = [], []
        for z in self.a:
            t = z._t
            if t == _ZERO:
                factors.append(None)
            else:
                a, b, c, d, q = t
                f = (bit, bit - 1, (t, (-a, -b, -c, -d, q)),
                     ((-a, b, -c, d, q), (a, -b, c, -d, q)))
                factors.append(f)
                steps.append(f)
            bit <<= 1
        object.__setattr__(self, "_factors", factors)
        object.__setattr__(self, "_clifford_steps", steps)

    def part01(self) -> Form:
        n = self.ctx.n
        return Form._exact(self.ctx, {1 << (n + k): c._t
                                      for k, c in enumerate(self.a) if c})

    def norm_sq(self):
        """|gamma|^2 = 2 sum |a_i|^2 for the real covector."""
        s = _dot_conj((c._t, c._t) for c in self.a)
        return _make(_add(s, s))

    def is_zero(self) -> bool:
        return all(is_zero(c) for c in self.a)

    def __add__(self, other):
        if not isinstance(other, Covector):
            return NotImplemented
        _same_ctx(self.ctx, other.ctx)
        return Covector._exact(self.ctx, tuple(x + y for x, y in zip(self.a, other.a)))

    def scale_real(self, t):
        """Scaling by a real number keeps the covector real."""
        t = self.ctx.coerce(t)
        return Covector._exact(self.ctx, tuple(x * t for x in self.a))


def wedge(x: Form, y: Form) -> Form:
    """Exterior product; bilinear, graded-anticommutative, associative.

    The product of the words kx and ky is the word kx | ky, up to the sign
    of sorting the letters of kx followed by those of ky.  With two
    multi-term sides, x's terms are bucketed by their th half, and each
    key of y visits only the buckets whose th half is disjoint from its
    own, listed once per th half of y; within a bucket the th letters are
    disjoint, so the key test rejects on thb letters only."""
    _same_ctx(x.ctx, y.ctx)
    if len(x._terms) <= 1 or len(y._terms) <= 1:
        return Form._exact(x.ctx, _wedge_one_term(x._terms, y._terms))
    odd_below = _ODD_BELOW
    th_bits = (1 << x.ctx.n) - 1
    buckets = {}
    for term in x._terms.items():
        xi = term[0] & th_bits
        bucket = buckets.get(xi)
        if bucket is None:
            buckets[xi] = [term]
        else:
            bucket.append(term)
    buckets = buckets.items()
    disjoint = {}       # th half of y: the buckets disjoint from it
    acc = {}
    for ky, d in y._terms.items():
        yi = ky & th_bits
        visit = disjoint.get(yi)
        if visit is None:
            visit = disjoint[yi] = [b for xi, b in buckets if not xi & yi]
        ob = odd_below[ky]
        d = (d, _neg(d))
        for bucket in visit:
            for kx, c in bucket:
                if kx & ky:
                    continue
                _mul_into(acc, kx | ky, c, d[(kx & ob).bit_count() & 1])
    return Form._exact(x.ctx, _finish(acc))


def _wedge_one_term(xt: dict, yt: dict) -> dict:
    """The terms of x ^ y when x or y has at most one term.  The products
    of the other side's terms with the one term land on distinct keys, so
    each is written directly: a phase of the other coefficient when the one
    coefficient t is a power of i, else one product with +-t, either way
    canonical, with the sign read from _ODD_BELOW as in wedge."""
    if not xt or not yt:
        return {}
    odd_below = _ODD_BELOW
    if len(yt) == 1:
        ((ky, t),) = yt.items()
        ob = odd_below[ky]
        hits = [(kx | ky, c, (kx & ob).bit_count())
                for kx, c in xt.items() if not kx & ky]
    else:
        ((kx, t),) = xt.items()
        hits = [(kx | ky, c, (kx & odd_below[ky]).bit_count())
                for ky, c in yt.items() if not kx & ky]
    e = _unit_exponent(t)
    if e is not None:
        return {key: _phase(c, e + 2 * odd) for key, c, odd in hits}
    t = _signed(t)
    return {key: _mul(c, t[odd & 1]) for key, c, odd in hits}


def contract(g: Covector, x: Form) -> Form:
    """Contraction by the metric dual of gamma^{1,0}.

    Conjugate-linear in g, complex-linear in x; an antiderivation that
    removes thb letters only (q drops by 1, p is unchanged).  Removing thb^j
    passes the letters of the word below it: every th letter and the thb
    letters of J below j.
    """
    _same_ctx(g.ctx, x.ctx)
    n = x.ctx.n
    factors = g._factors
    acc = {}
    for key, s in x._terms.items():
        rest = key >> n
        while rest:
            low = rest & -rest
            rest ^= low
            f = factors[low.bit_length() - 1]
            if f is not None:
                bit, below, _join, leave = f
                # leave holds -conj(a_j) at even parity, conj(a_j) at odd
                _mul_into(acc, key ^ bit, s, leave[((key & below).bit_count() & 1) ^ 1])
    return Form._exact(x.ctx, _finish(acc))


def clifford(g: Covector, x: Form) -> Form:
    """c(gamma) x = sqrt2 (gamma^{0,1} ^ x - contract(gamma^{1,0}, x)) on a
    form with no th factors (p = 0), in one pass over the terms of x: thb^j
    either joins J (coefficient a_j) or leaves it (coefficient -conj(a_j)),
    with the sign of the thb factors of J below j in both cases; sqrt2 is
    applied once per output coefficient."""
    _same_ctx(g.ctx, x.ctx)
    if not x._terms:
        return x
    th_bits = (1 << x.ctx.n) - 1
    steps = g._clifford_steps
    acc = {}
    for key, s in x._terms.items():
        if key & th_bits:
            raise DegreeError("Clifford action needs a (0, q) input")
        for bit, below, join, leave in steps:
            coef = leave if key & bit else join
            _mul_into(acc, key ^ bit, s, coef[(key & below).bit_count() & 1])
    return Form._exact(x.ctx, _finish(acc, sqrt2=True))


def inner(x: Form, y: Form):
    """Hermitian inner product; the monomial basis is orthonormal and the
    second slot is conjugate-linear."""
    _same_ctx(x.ctx, y.ctx)
    xt, yt = x._terms, y._terms
    if len(yt) < len(xt):
        return _make(_dot_conj((xt[key], d) for key, d in yt.items() if key in xt))
    return _make(_dot_conj((c, yt[key]) for key, c in xt.items() if key in yt))


def _complement(key: int, n: int):
    """Key of the complementary monomial th^Ic ^ thb^Jc of th^I ^ thb^J,
    and the parity of (th^I thb^J) ^ (th^Ic thb^Jc) = (-1)^parity
    th^top thb^top."""
    return ((1 << 2 * n) - 1) ^ key, _COMPLEMENT_PARITY[key]


def _thb_parity_part(f: Form, parity: int) -> Form:
    """The terms of f whose thb degree has the given parity."""
    n = f.ctx.n
    return Form._exact(f.ctx, {key: c for key, c in f._terms.items()
                               if (key >> n).bit_count() % 2 == parity})


def _strip_top(f: Form) -> Form:
    """Divide a (n, q)-supported form by th^1^..^th^n on the left."""
    top = (1 << f.ctx.n) - 1
    out = {}
    for key, c in f._terms.items():
        if key & top != top:
            raise DegreeError("expected a form divisible by the top (n,0) frame")
        out[key ^ top] = c
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


def _unit_table() -> tuple:
    """z^2 / |z|^2 for z = a + b i, at 7 (a + 3) + (b + 3); None at z = 0.
    Each entry is checked for modulus exactly 1 here, once, so a module
    with a wrong entry fails to import: random_phi builds its PhiMap
    trusted, with a framing drawn from this table."""
    table = tuple(
        ExactComplex(Fraction(a * a - b * b, a * a + b * b),
                     Fraction(2 * a * b, a * a + b * b)) if a or b else None
        for a in range(-3, 4) for b in range(-3, 4))
    for z in table:
        if z is not None and z * z.conjugate() != 1:
            raise ValueError(f"unit table entry {z.text()} has modulus != 1")
    return table


_UNIT_SCALARS = _unit_table()


# the stored tuple of each, None at zero
_RANDOM_TERMS = tuple(z._t if z else None for z in _RANDOM_SCALARS)


def _draw_index(bits) -> int:
    """The index in _RANDOM_SCALARS of random_scalar, on the getrandbits of
    a Random."""
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
    return ((ra * 3 + qa) * 7 + rb) * 3 + qb


def random_scalar(ctx: FiberContext, rng: random.Random) -> ExactComplex:
    """random_rational(rng) + random_rational(rng) * i, with the same draws."""
    return _RANDOM_SCALARS[_draw_index(rng.getrandbits)]


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
    drawn = _RANDOM_TERMS
    tjs = _thb_keys(ctx.n, q)
    terms = {}
    for ti in _subset_keys(ctx.n, p):
        for tj in tjs:
            t = drawn[_draw_index(bits)]
            if t is not None:
                terms[ti | tj] = t
    return Form._exact(ctx, terms)


def random_covector(ctx: FiberContext, seed) -> Covector:
    """n draws of random_scalar, taken as they are drawn."""
    bits = _rng(seed).getrandbits
    return Covector._exact(ctx, tuple(_RANDOM_SCALARS[_draw_index(bits)]
                                      for _ in range(ctx.n)))


def random_nonzero_covector(ctx: FiberContext, rng) -> Covector:
    rng = _rng(rng)
    while True:
        g = random_covector(ctx, rng)
        if not g.is_zero():
            return g

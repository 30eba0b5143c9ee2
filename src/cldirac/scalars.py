"""The one scalar tower of the fiber calculus: the field Q(i, sqrt2).

A value is ((a + b*i) + (c + d*i)*sqrt2) / q, held as five Python ints
(a, b, c, d, q) over one shared denominator.  A tuple is canonical when
q > 0 and gcd(a, b, c, d, q) == 1; zero is (0, 0, 0, 0, 1).  Canonical
tuples of equal values are equal, so equality is a tuple compare on the
ints, and a rational value hashes like the int or Fraction it equals.  The
formal sqrt2 slot (multiplied out via sqrt2*sqrt2 = 2) keeps Clifford
factors exact, so identity defects are provably zero rather than merely
small.  Fractions appear only at the edges (the constructor, the
``ar``/``ai``/``br``/``bi`` views, ``text`` and the hash of a rational
value), and floats only in ``to_complex`` and ``real_to_float``, for
display.

The arithmetic is written once, on tuples: ``_add``, ``_sub``, ``_mul``,
``_neg``, ``_conj``, ``_inv`` and ``_phase`` take canonical tuples and
return one.  ExactComplex is a one-slot wrapper of a canonical tuple whose
operators call those helpers; each operation has one spelling, so a
quotient is ``x * y.inverse()``.  The Forms of fiber.py store the tuples
themselves, so the exact kernels of fiber.py, hodge.py, clifford.py and
perturbation.py make an ExactComplex only where a value leaves them.  A
kernel sums raw products in a private accumulator (``_mul_into``), whose
tuples are unnormalised: q is any positive common denominator and no
common factor is removed.  ``_finish`` canonicalises each entry once and
drops the zeros, so nothing unnormalised is ever stored in a Form.  A sum
of products that is one scalar (an inner product, a squared norm, a
weighted sum of them) goes through ``_dot_conj``, the one accumulation
over a single key.  A phase (``_phase``: a power of i, after an optional
conjugation) permutes the slots of a tuple and flips their signs, so it
keeps a canonical tuple canonical without a gcd.
"""

from __future__ import annotations

import math
from fractions import Fraction

SQRT2_FLOAT = math.sqrt(2.0)

_gcd = math.gcd
_ZERO = (0, 0, 0, 0, 1)     # the canonical tuple of 0
_ONE = (1, 0, 0, 0, 1)      # the canonical tuple of 1


def _parts(x):
    """(numerator, denominator) of an int or a Fraction."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


# -- arithmetic on canonical tuples ------------------------------------------

def _reduce(a, b, c, d, q) -> tuple:
    """The canonical tuple of ((a + b i) + (c + d i) sqrt2) / q, q > 0."""
    if q != 1:
        g = _gcd(a, b, c, d, q)
        if g != 1:
            return (a // g, b // g, c // g, d // g, q // g)
    return (a, b, c, d, q)


def _add(s, t) -> tuple:
    a, b, c, d, q = s
    e, f, g, h, r = t
    if q == r:
        return _reduce(a + e, b + f, c + g, d + h, q)
    return _reduce(a * r + e * q, b * r + f * q, c * r + g * q, d * r + h * q,
                   q * r)


def _sub(s, t) -> tuple:
    a, b, c, d, q = s
    e, f, g, h, r = t
    if q == r:
        return _reduce(a - e, b - f, c - g, d - h, q)
    return _reduce(a * r - e * q, b * r - f * q, c * r - g * q, d * r - h * q,
                   q * r)


def _mul(s, t) -> tuple:
    a, b, c, d, q = s
    e, f, g, h, r = t
    # (A + C s2)(E + G s2) = (AE + 2CG) + (AG + CE) s2
    if not (c or d or g or h):            # common case: plain Q(i)
        return _reduce(a * e - b * f, a * f + b * e, 0, 0, q * r)
    return _reduce(a * e - b * f + 2 * (c * g - d * h),
                   a * f + b * e + 2 * (c * h + d * g),
                   a * g - b * h + c * e - d * f,
                   a * h + b * g + c * f + d * e,
                   q * r)


def _neg(s) -> tuple:
    a, b, c, d, q = s
    return (-a, -b, -c, -d, q)


def _conj(s) -> tuple:
    a, b, c, d, q = s
    return (a, -b, c, -d, q)


def _inv(s) -> tuple:
    """Field inverse q (A - C s2) conj(D) / |D|^2 of (A + C s2) / q, with
    D = A^2 - 2 C^2; sqrt2 is irrational over Q(i), so D vanishes only at
    zero."""
    a, b, c, d, q = s
    dr = a * a - b * b - 2 * (c * c - d * d)
    di = 2 * a * b - 4 * c * d
    dd = dr * dr + di * di
    if dd == 0:
        raise ZeroDivisionError("inverse of zero")
    return _reduce(q * (a * dr + b * di), q * (b * dr - a * di),
                   -q * (c * dr + d * di), -q * (d * dr - c * di), dd)


def _phase(s, e: int, conjugate: bool = False) -> tuple:
    """i**e * s, or i**e * conj(s); canonical without a gcd."""
    a, b, c, d, q = s
    if conjugate:
        b, d = -b, -d
    e &= 3
    if e == 1:
        return (-b, a, -d, c, q)
    if e == 2:
        return (-a, -b, -c, -d, q)
    if e == 3:
        return (b, -a, d, -c, q)
    return (a, b, c, d, q)


# -- the value type -----------------------------------------------------------

def _make(t):
    """An ExactComplex holding the tuple t, which must be canonical."""
    z = object.__new__(ExactComplex)
    z._t = t
    return z


def _coerce(x):
    if isinstance(x, ExactComplex):
        return x
    if isinstance(x, int):
        return _make((int(x), 0, 0, 0, 1))
    if isinstance(x, Fraction):
        return _make((x.numerator, 0, 0, 0, x.denominator))
    return None


class ExactComplex:
    """(ar + ai*i) + (br + bi*i)*sqrt2 for ints or Fractions ar, ai, br, bi.

    Stored as the canonical int tuple ``(a, b, c, d, q)`` described in the
    module docstring.  Instances are immutable by convention; no method
    mutates self.
    """

    __slots__ = ("_t",)

    def __init__(self, ar=0, ai=0, br=0, bi=0):
        (a, qa), (b, qb), (c, qc), (d, qd) = (_parts(ar), _parts(ai),
                                              _parts(br), _parts(bi))
        q = math.lcm(qa, qb, qc, qd)
        self._t = _reduce(a * (q // qa), b * (q // qb), c * (q // qc),
                          d * (q // qd), q)

    # -- exact parts as Fractions -------------------------------------------

    @property
    def ar(self) -> Fraction:
        return Fraction(self._t[0], self._t[4])

    @property
    def ai(self) -> Fraction:
        return Fraction(self._t[1], self._t[4])

    @property
    def br(self) -> Fraction:
        return Fraction(self._t[2], self._t[4])

    @property
    def bi(self) -> Fraction:
        return Fraction(self._t[3], self._t[4])

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not ExactComplex:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _make(_add(self._t, other._t))

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not ExactComplex:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _make(_sub(self._t, other._t))

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _make(_sub(o._t, self._t))

    def __neg__(self):
        return _make(_neg(self._t))

    def __mul__(self, other):
        if other.__class__ is not ExactComplex:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _make(_mul(self._t, other._t))

    __rmul__ = __mul__

    def conjugate(self):
        return _make(_conj(self._t))

    def inverse(self):
        """Field inverse; ZeroDivisionError at zero."""
        return _make(_inv(self._t))

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return self._t != _ZERO

    def __eq__(self, other):
        if other.__class__ is not ExactComplex:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self._t == other._t

    def __hash__(self):
        # a rational value equals the int or Fraction a / q, so it must
        # hash like one
        a, b, c, d, q = self._t
        if b or c or d:
            return hash(self._t)
        return hash(a) if q == 1 else hash(Fraction(a, q))

    # -- conversion / display ---------------------------------------------

    def to_complex(self) -> complex:
        # int / int is correctly rounded, like float(Fraction)
        a, b, c, d, q = self._t
        return complex(a / q + SQRT2_FLOAT * (c / q),
                       b / q + SQRT2_FLOAT * (d / q))

    @staticmethod
    def _pair_text(re: Fraction, im: Fraction) -> str:
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"

    def text(self) -> str:
        """Exact text form, e.g. '1/2-3i' or '(1+i)+(2/3i)*sqrt2'."""
        a = self._pair_text(self.ar, self.ai)
        if not (self._t[2] or self._t[3]):
            return a
        b = self._pair_text(self.br, self.bi)
        if not (self._t[0] or self._t[1]):
            return f"({b})*sqrt2"
        return f"({a})+({b})*sqrt2"

    def __repr__(self):
        return f"ExactComplex({self.text()})"


EC_ZERO = ExactComplex()
EC_ONE = ExactComplex(1)
EC_I = ExactComplex(0, 1)
EC_SQRT2 = ExactComplex(0, 0, 1)


# -- helpers -----------------------------------------------------------------

def conj(z):
    return z.conjugate()


def is_zero(z) -> bool:
    return not z


def real_part(z):
    """Real part, still exact."""
    a, _b, c, _d, q = z._t
    return _make(_reduce(a, 0, c, 0, q))


def real_to_float(z) -> float:
    """The real part (a + c sqrt2) / q as a float, without cancellation:
    when a and c have opposite signs it is evaluated as
    (a^2 - 2 c^2) / (q (a - c sqrt2)), whose denominator adds magnitudes,
    so a nonzero value never rounds to 0.0."""
    a, _b, c, _d, q = z._t
    if (a < 0 < c) or (c < 0 < a):
        return ((a * a - 2 * c * c) / (q * q)) / (a / q - SQRT2_FLOAT * (c / q))
    return a / q + SQRT2_FLOAT * (c / q)


# -- kernel helpers ----------------------------------------------------------

def _mul_into(acc, key, s, t):
    """acc[key] += s * t for the tuples s and t, in the unnormalised
    accumulator acc; the sum is put over the lcm of the denominators."""
    a, b, c, d, q = s
    e, f, g, h, r = t
    if c or d or g or h:
        x0 = a * e - b * f + 2 * (c * g - d * h)
        x1 = a * f + b * e + 2 * (c * h + d * g)
        x2 = a * g - b * h + c * e - d * f
        x3 = a * h + b * g + c * f + d * e
    else:                                 # common case: plain Q(i)
        x0 = a * e - b * f
        x1 = a * f + b * e
        x2 = x3 = 0
    q *= r
    old = acc.get(key)
    if old is None:
        acc[key] = (x0, x1, x2, x3, q)
        return
    a, b, c, d, r = old
    if r == q:
        acc[key] = (a + x0, b + x1, c + x2, d + x3, q)
        return
    g = _gcd(q, r)
    m, k = q // g, r // g                 # lcm = r * m = q * k
    acc[key] = (a * m + x0 * k, b * m + x1 * k, c * m + x2 * k,
                d * m + x3 * k, r * m)


def _finish(acc, sqrt2=False) -> dict:
    """The canonical tuple of each nonzero entry of an accumulator, times
    sqrt2 when asked: (A + C sqrt2) sqrt2 = 2C + A sqrt2."""
    out = {}
    for key, (a, b, c, d, q) in acc.items():
        if sqrt2:
            a, b, c, d = 2 * c, 2 * d, a, b
        if a or b or c or d:
            out[key] = _reduce(a, b, c, d, q)
    return out


def _dot_conj(pairs) -> tuple:
    """sum of s * conj(t) over the (s, t) tuple pairs, canonicalised once:
    the one sum of exact products into one scalar."""
    acc = {}
    for s, (a, b, c, d, q) in pairs:
        _mul_into(acc, 0, s, (a, -b, c, -d, q))
    return _finish(acc).get(0, _ZERO)


def _signed(s, conjugate: bool = False) -> tuple:
    """The tuples s and -s (conj(s) and -conj(s) when asked), so that a
    kernel picks a factor's sign by indexing with a parity."""
    a, b, c, d, q = s
    if conjugate:
        b, d = -b, -d
    return (a, b, c, d, q), (-a, -b, -c, -d, q)


_UNIT_EXPONENTS = {(1, 0, 0, 0, 1): 0, (0, 1, 0, 0, 1): 1,
                   (-1, 0, 0, 0, 1): 2, (0, -1, 0, 0, 1): 3}


def _unit_exponent(s):
    """e with the tuple s == i**e, or None when s is not a power of i."""
    return _UNIT_EXPONENTS.get(s)

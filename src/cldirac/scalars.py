"""The one scalar tower of the fiber calculus: the field Q(i, sqrt2).

Values are (a + b*sqrt2) with a and b complex rationals held as Fraction
pairs.  The formal sqrt2 slot (multiplied out via sqrt2*sqrt2 = 2) keeps
Clifford factors exact, so identity defects are provably zero rather than
merely small.  Floats appear only in ``to_complex``, for display.
"""

from __future__ import annotations

import math
from fractions import Fraction

SQRT2_FLOAT = math.sqrt(2.0)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class ExactComplex:
    """(ar + ai*i) + (br + bi*i)*sqrt2 with Fraction parts.

    Instances are immutable by convention; no method mutates self.
    """

    __slots__ = ("ar", "ai", "br", "bi")

    def __init__(self, ar=0, ai=0, br=0, bi=0):
        self.ar = _frac(ar)
        self.ai = _frac(ai)
        self.br = _frac(br)
        self.bi = _frac(bi)

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, ExactComplex):
            return x
        if isinstance(x, (int, Fraction)):
            return ExactComplex(x)
        return None

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactComplex(self.ar + o.ar, self.ai + o.ai,
                            self.br + o.br, self.bi + o.bi)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactComplex(self.ar - o.ar, self.ai - o.ai,
                            self.br - o.br, self.bi - o.bi)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return ExactComplex(-self.ar, -self.ai, -self.br, -self.bi)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ar, ai, br, bi = self.ar, self.ai, self.br, self.bi
        cr, ci, dr, di = o.ar, o.ai, o.br, o.bi
        # (a + b*s2)(c + d*s2) = (ac + 2bd) + (ad + bc)*s2
        if not (br or bi or dr or di):        # common case: plain Q(i)
            return ExactComplex(ar * cr - ai * ci, ar * ci + ai * cr)
        er = ar * cr - ai * ci + 2 * (br * dr - bi * di)
        ei = ar * ci + ai * cr + 2 * (br * di + bi * dr)
        fr = ar * dr - ai * di + br * cr - bi * ci
        fi = ar * di + ai * dr + br * ci + bi * cr
        return ExactComplex(er, ei, fr, fi)

    __rmul__ = __mul__

    def conjugate(self):
        return ExactComplex(self.ar, -self.ai, self.br, -self.bi)

    def inverse(self):
        """Field inverse; sqrt2 is irrational over Q(i), so the
        rationalizing denominator a^2 - 2b^2 vanishes only at zero."""
        ar, ai, br, bi = self.ar, self.ai, self.br, self.bi
        dr = ar * ar - ai * ai - 2 * (br * br - bi * bi)
        di = 2 * ar * ai - 4 * br * bi
        dd = dr * dr + di * di
        if dd == 0:
            raise ZeroDivisionError("inverse of zero")
        # (a - b*s2) * conj(d) / |d|^2
        nr, ni = ar, ai
        mr, mi = -br, -bi
        return ExactComplex((nr * dr + ni * di) / dd, (ni * dr - nr * di) / dd,
                            (mr * dr + mi * di) / dd, (mi * dr - mr * di) / dd)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return bool(self.ar or self.ai or self.br or self.bi)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.ar == o.ar and self.ai == o.ai
                and self.br == o.br and self.bi == o.bi)

    def __hash__(self):
        return hash((self.ar, self.ai, self.br, self.bi))

    # -- conversion / display ---------------------------------------------

    def to_complex(self) -> complex:
        return complex(float(self.ar) + SQRT2_FLOAT * float(self.br),
                       float(self.ai) + SQRT2_FLOAT * float(self.bi))

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
        if self.br == 0 and self.bi == 0:
            return a
        b = self._pair_text(self.br, self.bi)
        if self.ar == 0 and self.ai == 0:
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


def abs_sq(z):
    """z * conj(z); exact and real."""
    return z * z.conjugate()


def real_part(z):
    """Real part, still exact."""
    return ExactComplex(z.ar, 0, z.br, 0)


def real_to_float(z) -> float:
    return z.to_complex().real


def scalar_text(z) -> str:
    return z.text()

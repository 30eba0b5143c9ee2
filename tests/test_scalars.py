"""Field axioms and exact behavior of the Q(i, sqrt2) scalar tower."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cldirac.fiber import FiberContext, random_scalar, random_unit_scalar
from cldirac.scalars import (
    EC_I,
    EC_ONE,
    EC_SQRT2,
    ExactComplex,
    real_part,
    real_to_float,
)

small = st.integers(min_value=-4, max_value=4)
dens = st.integers(min_value=1, max_value=3)


@st.composite
def exact_scalars(draw):
    return ExactComplex(Fraction(draw(small), draw(dens)),
                        Fraction(draw(small), draw(dens)),
                        Fraction(draw(small), draw(dens)),
                        Fraction(draw(small), draw(dens)))


@given(exact_scalars(), exact_scalars(), exact_scalars())
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(exact_scalars())
@settings(max_examples=60)
def test_field_inverse(a):
    if a == 0:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == 1


@given(exact_scalars(), exact_scalars())
@settings(max_examples=60)
def test_conjugation_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_sqrt2_squares_to_two():
    assert EC_SQRT2 * EC_SQRT2 == 2
    assert EC_I * EC_I == -1
    assert (EC_SQRT2 * EC_I) * (EC_SQRT2 * EC_I) == -2


def test_norm_square_is_real_nonnegative():
    z = ExactComplex(Fraction(1, 2), 3, Fraction(-2, 3), 1)
    nsq = z * z.conjugate()
    assert nsq.ai == 0 and nsq.bi == 0
    assert real_to_float(nsq) > 0


def test_real_part_and_text():
    z = ExactComplex(Fraction(1, 2), Fraction(-3), Fraction(2, 3), Fraction(5))
    assert real_part(z) == ExactComplex(Fraction(1, 2), 0, Fraction(2, 3), 0)
    assert ExactComplex(1).text() == "1"
    assert "sqrt2" in EC_SQRT2.text()


def test_division_example():
    assert EC_ONE / EC_SQRT2 == ExactComplex(0, 0, Fraction(1, 2), 0)


def test_int_interop():
    z = ExactComplex(2, 1)
    assert z + 1 == ExactComplex(3, 1)
    assert 2 * z == ExactComplex(4, 2)
    assert z - Fraction(1, 2) == ExactComplex(Fraction(3, 2), 1)
    assert bool(ExactComplex()) is False


def test_to_complex():
    z = ExactComplex(1, 0, 1, 0)
    assert abs(z.to_complex() - (1 + 2 ** 0.5)) < 1e-15


# -- the int representation against the Fraction formulas -------------------
#
# The reference below is the arithmetic of Q(i, sqrt2) written on Fraction
# 4-tuples (ar, ai, br, bi), the way the tower was first implemented.

def _ref_mul(x, y):
    ar, ai, br, bi = x
    cr, ci, dr, di = y
    return (ar * cr - ai * ci + 2 * (br * dr - bi * di),
            ar * ci + ai * cr + 2 * (br * di + bi * dr),
            ar * dr - ai * di + br * cr - bi * ci,
            ar * di + ai * dr + br * ci + bi * cr)


def _ref_inverse(x):
    ar, ai, br, bi = x
    dr = ar * ar - ai * ai - 2 * (br * br - bi * bi)
    di = 2 * ar * ai - 4 * br * bi
    dd = dr * dr + di * di
    nr, ni, mr, mi = ar, ai, -br, -bi
    return ((nr * dr + ni * di) / dd, (ni * dr - nr * di) / dd,
            (mr * dr + mi * di) / dd, (mi * dr - mr * di) / dd)


def _ref_pair_text(re, im):
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


def _ref_text(x):
    ar, ai, br, bi = x
    a = _ref_pair_text(ar, ai)
    if br == 0 and bi == 0:
        return a
    b = _ref_pair_text(br, bi)
    if ar == 0 and ai == 0:
        return f"({b})*sqrt2"
    return f"({a})+({b})*sqrt2"


def _ref_complex(x):
    ar, ai, br, bi = x
    s2 = 2 ** 0.5
    return complex(float(ar) + s2 * float(br), float(ai) + s2 * float(bi))


def _parts(z):
    return (z.ar, z.ai, z.br, z.bi)


def _assert_canonical(z):
    a, b, c, d, q = z._t
    assert q > 0
    assert math.gcd(a, b, c, d, q) == 1


wide = st.fractions(min_value=-60, max_value=60, max_denominator=40)
wide_parts = st.tuples(wide, wide, wide, wide)


@given(wide_parts, wide_parts)
@settings(max_examples=200)
def test_int_arithmetic_matches_fraction_formulas(x, y):
    zx, zy = ExactComplex(*x), ExactComplex(*y)
    assert _parts(zx) == x and _parts(zy) == y
    results = {
        "+": (zx + zy, tuple(a + b for a, b in zip(x, y))),
        "-": (zx - zy, tuple(a - b for a, b in zip(x, y))),
        "*": (zx * zy, _ref_mul(x, y)),
        "conj": (zx.conjugate(), (x[0], -x[1], x[2], -x[3])),
        "neg": (-zx, tuple(-a for a in x)),
    }
    if any(x):
        results["inverse"] = (zx.inverse(), _ref_inverse(x))
    for op, (got, ref) in results.items():
        assert _parts(got) == ref, op
        _assert_canonical(got)
        assert got == ExactComplex(*ref) and hash(got) == hash(ExactComplex(*ref))
        assert got.text() == _ref_text(ref), op
        assert got.to_complex() == _ref_complex(ref), op
    assert (zx == zy) == (x == y)
    assert bool(zx) == any(x)


@given(wide_parts, st.integers(min_value=2, max_value=30))
@settings(max_examples=100)
def test_equal_values_have_equal_tuples_and_hashes(x, k):
    # the same value reached by different routes is stored the same way
    z = ExactComplex(*x)
    scaled = ExactComplex(k) * z * ExactComplex(Fraction(1, k))
    assert scaled == z and scaled._t == z._t and hash(scaled) == hash(z)
    _assert_canonical(scaled)
    assert (z - z)._t == ExactComplex(0)._t


def test_equal_fractions_hash_equal():
    a, b = ExactComplex(Fraction(2, 4)), ExactComplex(Fraction(1, 2))
    assert a == b and hash(a) == hash(b) and a._t == (1, 0, 0, 0, 2)
    assert ExactComplex(0, Fraction(6, 9))._t == (0, 2, 0, 0, 3)


def test_rational_values_hash_like_ints_and_fractions():
    # == already holds with ints and Fractions; hash must agree with it
    assert len({ExactComplex(1), 1}) == 1
    assert len({ExactComplex(Fraction(1, 2)), Fraction(1, 2)}) == 1
    for x in (0, -7, 2 ** 70, Fraction(-3, 5), Fraction(1, 2 ** 70)):
        assert ExactComplex(x) == x and hash(ExactComplex(x)) == hash(x)


def test_constructor_rejects_floats():
    with pytest.raises(TypeError):
        ExactComplex(0.5)
    with pytest.raises(TypeError):
        ExactComplex(1, 0, 0, 1.0)


def _ref_random_rational(rng):
    return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))


def _ref_random_unit_scalar(rng):
    while True:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if a or b:
            break
    d = a * a + b * b
    return (Fraction(a * a - b * b, d), Fraction(2 * a * b, d), 0, 0)


@pytest.mark.parametrize("seed", range(1, 51))
def test_random_scalars_draw_the_fraction_values(seed):
    ctx = FiberContext(2)
    rng, ref = random.Random(seed), random.Random(seed)
    # 10^4 draws of each kind over the seeds, so that the getrandbits
    # draws are pinned to randint/choice, values and generator state
    for _ in range(200):
        z = random_scalar(ctx, rng)
        assert _parts(z) == (_ref_random_rational(ref), _ref_random_rational(ref),
                             0, 0)
        _assert_canonical(z)
        u = random_unit_scalar(ctx, rng)
        assert _parts(u) == _ref_random_unit_scalar(ref)
        _assert_canonical(u)
    assert rng.getstate() == ref.getstate()

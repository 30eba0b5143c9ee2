"""Conjugate-linear perturbation: component formulas, adjoint, defect, examples."""

import decimal
import random
from fractions import Fraction

import pytest

from cldirac import perturbation
from cldirac import (
    ANTISYMMETRIC,
    ChiralityError,
    Covector,
    DegreeError,
    EVEN,
    FiberContext,
    GENERAL,
    ODD,
    PhiMap,
    SYMMETRIC,
    Spinor,
    apply_A,
    apply_A_adjoint,
    concentrating_defect,
    defect_vanishes,
    matched_class,
    monomial,
    opposite_class,
    random_covector,
    random_phi,
    scalar_form,
    singular_verdict,
    spinor_basis,
    symbol,
)
from cldirac.fiber import ContextMismatchError, random_nonzero_covector
from cldirac.perturbation import _defect_norms_sq_iter, random_nonzero_phi
from cldirac.scalars import ExactComplex, is_zero, real_part, real_to_float

from _reference import example_phi, random_spinor


def test_phimap_symmetry_validation():
    ctx = FiberContext(1)
    one = ExactComplex(1)
    with pytest.raises(ValueError):
        PhiMap(ctx, 2, ((0, one), (one, 0)), declared_class=ANTISYMMETRIC)
    with pytest.raises(ValueError):
        PhiMap(ctx, 2, ((0, one), (-one, one)), declared_class=SYMMETRIC)
    with pytest.raises(ValueError):
        PhiMap(ctx, 1, ((one,),), eta_scalar=ExactComplex(2))


def test_apply_A_component_formula():
    # n=1, r=1: A(u * 1 (x) e) = -conj(w u) thb1 (x) e
    ctx = FiberContext(1)
    w = ExactComplex(2, 1)
    u = ExactComplex(1, 3)
    phi = PhiMap(ctx, 1, ((w,),), declared_class=SYMMETRIC)
    out = apply_A(phi, Spinor(ctx, [scalar_form(ctx, u)]))
    assert out.chirality == ODD
    assert out.parts[0] == monomial(ctx, (), (1,), -(w * u).conjugate())


def test_apply_A_zero_map():
    ctx = FiberContext(3)
    phi = PhiMap(ctx, 2, ((0, 0), (0, 0)), declared_class=SYMMETRIC)
    z = random_spinor(ctx, 2, EVEN, seed=5)
    assert apply_A(phi, z).is_zero()


def test_apply_A_isometry_unit_rank_one():
    # |w| = 1, r = 1: <A z, A z> = <z, z>, and A(A(z)) = -z via tau^2 = -1
    from fractions import Fraction
    ctx = FiberContext(1)
    w = ExactComplex(Fraction(3, 5), Fraction(4, 5))
    phi = PhiMap(ctx, 1, ((w,),), declared_class=SYMMETRIC)
    z = Spinor(ctx, [scalar_form(ctx, ExactComplex(1))])
    az = apply_A(phi, z)
    assert az.norm_sq() == z.norm_sq()
    assert (apply_A(phi, az) + z).is_zero()


def test_apply_A_rejects_even_dimension():
    ctx = FiberContext(2)
    phi = PhiMap(ctx, 1, ((ExactComplex(1),),), declared_class=SYMMETRIC)
    with pytest.raises(DegreeError):
        apply_A(phi, Spinor(ctx, [scalar_form(ctx, 1)]))


def test_apply_A_rejects_mixed_chirality():
    ctx = FiberContext(1)
    phi = PhiMap(ctx, 1, ((ExactComplex(1),),), declared_class=SYMMETRIC)
    mixed = Spinor(ctx, [scalar_form(ctx, 1) + monomial(ctx, (), (1,))])
    with pytest.raises(ChiralityError):
        apply_A(phi, mixed)


def test_apply_A_adjoint_component_formula():
    # n=1, r=1: A*(v thb1 (x) e) = -conj(w v) 1 (x) e
    ctx = FiberContext(1)
    w = ExactComplex(-1, 2)
    v = ExactComplex(3, 1)
    phi = PhiMap(ctx, 1, ((w,),), declared_class=SYMMETRIC)
    out = apply_A_adjoint(phi, Spinor(ctx, [monomial(ctx, (), (1,), v)]))
    assert out.chirality == EVEN
    assert out.parts[0] == scalar_form(ctx, -(w * v).conjugate())


def test_adjoint_relation_exact():
    rng = random.Random(61)
    for n in (1, 3):
        ctx = FiberContext(n)
        for r in (1, 2, 3):
            for _ in range(15):
                phi = random_phi(ctx, r, GENERAL, rng)
                x = random_spinor(ctx, r, EVEN, rng)
                y = random_spinor(ctx, r, ODD, rng)
                assert (real_part(apply_A(phi, x).inner(y))
                        == real_part(x.inner(apply_A_adjoint(phi, y))))


def test_chirality_exchange_odd_dimension():
    for n in (1, 3):
        ctx = FiberContext(n)
        phi = random_phi(ctx, 2, matched_class(n), seed=1)
        z = random_spinor(ctx, 2, EVEN, seed=2)
        assert apply_A(phi, z).chirality == ODD
        zo = random_spinor(ctx, 2, ODD, seed=3)
        assert apply_A(phi, zo).chirality == EVEN


def test_defect_zero_for_matched_class():
    rng = random.Random(67)
    for n in (1, 3):
        ctx = FiberContext(n)
        cls = matched_class(n)
        for r in (1, 2, 3):
            for _ in range(10):
                phi = random_phi(ctx, r, cls, rng)
                g = random_covector(ctx, rng)
                assert concentrating_defect(phi, g) == 0.0


def test_defect_nonzero_for_wrong_class():
    rng = random.Random(71)
    for n in (1, 3):
        ctx = FiberContext(n)
        cls = opposite_class(n)
        r0 = 2 if cls == ANTISYMMETRIC else 1
        for _ in range(20):
            phi = random_nonzero_phi(ctx, r0 + (_ % 2), cls, rng)
            g = random_nonzero_covector(ctx, rng)
            assert concentrating_defect(phi, g) > 0.0


def test_defect_nonzero_when_its_float_would_cancel():
    # c = -1.4142135623730951 + sqrt2 is nonzero, and the defect is linear in
    # phi; |c|^2 = a^2 + 2 + 2a sqrt2 cancels to 0.0 when summed naively
    ctx = FiberContext(1)
    gamma = Covector(ctx, (1,))
    tiny = ExactComplex(Fraction(-14142135623730951, 10 ** 16), 0, 1, 0)
    for c, expected in ((tiny, None), (ExactComplex(1), 2 * 2 ** 0.5)):
        phi = PhiMap(ctx, 2, ((0, c), (-c, 0)), declared_class=ANTISYMMETRIC)
        defect = concentrating_defect(phi, gamma)
        assert defect > 0.0
        if expected is not None:
            assert defect == pytest.approx(expected, rel=1e-15)


def _norms_sq_by_spinor_maps(phi, g):
    # reference: the full spinor maps on every basis spinor of S+ (x) E
    sig_d = symbol(g, phi.r, "D")
    sig_dstar = symbol(g, phi.r, "D_star")
    return [(sig_dstar(apply_A(phi, z)) + apply_A_adjoint(phi, sig_d(z))).norm_sq()
            for z in spinor_basis(phi.ctx, phi.r, EVEN)]


def _assert_defect_matches_reference(phi, g):
    # every basis vector's exact squared norm, not just the worst one
    nsqs = _norms_sq_by_spinor_maps(phi, g)
    assert list(_defect_norms_sq_iter(phi, g)) == nsqs
    expected = (0.0 if all(is_zero(x) for x in nsqs)
                else max(real_to_float(x) for x in nsqs) ** 0.5)
    defect = concentrating_defect(phi, g)
    assert defect == expected
    return defect


@pytest.mark.parametrize("n", [1, 3, 5])
def test_defect_equals_spinor_map_reference(n):
    rng = random.Random(83 + n)
    ctx = FiberContext(n)
    draws = 2 if n == 5 else 4
    nonzero = 0
    for cls in (SYMMETRIC, ANTISYMMETRIC, GENERAL):
        for r in (1, 2, 3, 4):
            for _ in range(draws):
                phi = random_phi(ctx, r, cls, rng)
                g = random_covector(ctx, rng)
                nonzero += _assert_defect_matches_reference(phi, g) != 0.0
    assert nonzero > 0
    tiny = ExactComplex(Fraction(-14142135623730951, 10 ** 16), 0, 1, 0)
    for cls, entries in ((ANTISYMMETRIC, ((0, tiny), (-tiny, 0))),
                         (SYMMETRIC, ((tiny, 1), (1, 0))),
                         (GENERAL, ((0, tiny), (tiny, tiny)))):
        phi = PhiMap(ctx, 2, entries, declared_class=cls)
        _assert_defect_matches_reference(phi, random_nonzero_covector(ctx, rng))


def test_defect_vanishes_is_the_float_defect_at_zero():
    rng = random.Random(89)
    tiny = ExactComplex(Fraction(-14142135623730951, 10 ** 16), 0, 1, 0)
    seen = set()
    for n in (1, 3, 5):
        ctx = FiberContext(n)
        cases = [random_phi(ctx, r, cls, rng)
                 for cls in (SYMMETRIC, ANTISYMMETRIC, GENERAL)
                 for r in (1, 2, 3, 4) for _ in range(2 if n == 5 else 3)]
        cases += [PhiMap(ctx, 2, entries, declared_class=cls) for cls, entries in (
            (ANTISYMMETRIC, ((0, tiny), (-tiny, 0))),
            (SYMMETRIC, ((tiny, 1), (1, 0))),
            (GENERAL, ((0, tiny), (tiny, tiny))))]
        # a zero last row and column: that slot's values are 0 and the
        # others are not in the wrong class, so stopping at the first zero
        # (all in place of any) would call a nonzero defect vanishing
        cases += [PhiMap(ctx, 3, ((0, c, 0), (d, 0, 0), (0, 0, 0)),
                         declared_class=cls)
                  for cls, c, d in ((SYMMETRIC, tiny, tiny),
                                    (ANTISYMMETRIC, tiny, -tiny))]
        for phi in cases:
            g = random_nonzero_covector(ctx, rng)
            vanishes = concentrating_defect(phi, g) == 0.0
            assert defect_vanishes(phi, g) == vanishes
            seen.add(vanishes)
    assert seen == {True, False}


def test_defect_vanishes_stops_at_the_first_nonzero_image(monkeypatch):
    # n = 3 has four even monomials, two Clifford images each
    ctx = FiberContext(3)
    rng = random.Random(97)
    phi = random_nonzero_phi(ctx, 2, opposite_class(3), rng)
    g = random_nonzero_covector(ctx, rng)
    assert list(_defect_norms_sq_iter(phi, g))[0]
    calls = []
    inner_clifford = perturbation.clifford

    def counting(*args):
        calls.append(args)
        return inner_clifford(*args)

    monkeypatch.setattr(perturbation, "clifford", counting)
    assert not defect_vanishes(phi, g)
    assert len(calls) == 2
    calls.clear()
    assert concentrating_defect(phi, g) > 0.0
    assert len(calls) == 8


def test_defect_checks_raise_before_any_image():
    even = FiberContext(2)
    phi = PhiMap(even, 1, ((ExactComplex(1),),))
    with pytest.raises(DegreeError):
        _defect_norms_sq_iter(phi, random_covector(even, 1))
    with pytest.raises(DegreeError):
        defect_vanishes(phi, random_covector(even, 1))
    phi = PhiMap(FiberContext(1), 1, ((ExactComplex(1),),))
    with pytest.raises(ContextMismatchError):
        _defect_norms_sq_iter(phi, random_covector(FiberContext(3), 1))


def test_real_to_float_has_no_cancellation():
    z = ExactComplex(Fraction(-14142135623730951, 10 ** 16), 0, 1, 0)
    exact = decimal.Context(prec=40).sqrt(2) - decimal.Decimal("1.4142135623730951")
    assert real_to_float(z) == pytest.approx(float(exact), rel=1e-14)
    assert real_to_float(-z) == -real_to_float(z)
    assert real_to_float(ExactComplex(3, 0, 2, 0)) == 3 + 2 * 2 ** 0.5


def test_defect_rejects_even_dimension():
    ctx = FiberContext(2)
    phi = PhiMap(ctx, 1, ((ExactComplex(1),),))
    with pytest.raises(DegreeError):
        concentrating_defect(phi, random_covector(ctx, 1))


def test_singular_verdict_odd_antisymmetric():
    rng = random.Random(73)
    ctx = FiberContext(1)
    for r in (1, 3, 5):
        for _ in range(10):
            phi = random_phi(ctx, r, ANTISYMMETRIC, rng)
            assert singular_verdict(phi).is_singular


def test_singular_verdict_unit():
    ctx = FiberContext(1)
    verdict = singular_verdict(PhiMap(ctx, 1, ((ExactComplex(1),),)))
    assert verdict.det_value == 1 and not verdict.is_singular


def test_singular_verdict_2x2_antisymmetric():
    ctx = FiberContext(1)
    c = ExactComplex(2, -1)
    phi = PhiMap(ctx, 2, ((0, c), (-c, 0)), declared_class=ANTISYMMETRIC)
    verdict = singular_verdict(phi)
    assert verdict.det_value == c * c
    assert not verdict.is_singular
    zero = PhiMap(ctx, 2, ((0, 0), (0, 0)), declared_class=ANTISYMMETRIC)
    assert singular_verdict(zero).is_singular


def test_example_trace_pairing():
    ctx = FiberContext(1)
    phi = example_phi(ctx, "trace_pairing", 2)
    assert phi.r == 4 and phi.declared_class == SYMMETRIC
    # tr(E_ab E_cd) = delta_bc delta_ad in the row-major elementary basis
    expected = {(0, 0), (1, 2), (2, 1), (3, 3)}
    nonzero = {(i, j) for i in range(4) for j in range(4)
               if not is_zero(phi.entries[i][j])}
    assert nonzero == expected
    assert not singular_verdict(phi).is_singular


def test_example_symplectic_double():
    ctx = FiberContext(3)
    phi = example_phi(ctx, "symplectic_double", 1)
    assert phi.r == 2 and phi.declared_class == ANTISYMMETRIC
    assert phi.entries[0][1] == 1 and phi.entries[1][0] == -1
    assert singular_verdict(phi).det_value == 1


def test_example_metric_gc():
    ctx = FiberContext(2)
    phi = example_phi(ctx, "metric_gc")
    assert phi.r == 4 and phi.declared_class == SYMMETRIC
    for a in range(2):
        assert phi.entries[a][2 + a] == 1 and phi.entries[2 + a][a] == 1
    assert not singular_verdict(phi).is_singular


def test_example_omega_c():
    ctx = FiberContext(3)
    phi = example_phi(ctx, "omega_c")
    assert phi.r == 6 and phi.declared_class == ANTISYMMETRIC
    assert not singular_verdict(phi).is_singular
    # matched class for n = 3: the example satisfies the cancellation
    g = random_covector(ctx, 5)
    assert concentrating_defect(phi, g) == 0.0


def test_example_invalid_rank():
    ctx = FiberContext(1)
    with pytest.raises(ValueError):
        example_phi(ctx, "trace_pairing", 0)
    with pytest.raises(ValueError):
        example_phi(ctx, "unknown_kind")


def test_random_eta_scalar_invariance():
    # identities are invariant under the unit framing scalar
    rng = random.Random(79)
    ctx = FiberContext(1)
    for _ in range(10):
        phi = random_phi(ctx, 2, SYMMETRIC, rng)
        g = random_covector(ctx, rng)
        assert concentrating_defect(phi, g) == 0.0

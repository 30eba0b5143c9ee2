"""Star operator, tau rescaling, and their proven interchange identities."""

import random

import pytest

from cldirac import (
    DegreeError,
    FiberContext,
    Form,
    bar_star,
    contract,
    epsilon,
    epsilon_shift_identity,
    inner,
    monomial,
    random_covector,
    random_form,
    scalar_form,
    tau,
    tau_adjoint_defect,
    tau_graded,
    volume_form,
    wedge,
    zero_form,
)
from cldirac.fiber import basis_forms, random_unit_scalar
from cldirac.scalars import ExactComplex, is_zero


def test_volume_form_normalized():
    for n in (1, 2, 3, 4):
        ctx = FiberContext(n)
        dv = volume_form(ctx)
        assert inner(dv, dv) == 1
        assert dv.conjugate() == dv  # real


def test_star_n1_closed_forms():
    ctx = FiberContext(1)
    th = monomial(ctx, (1,), ())
    thb = monomial(ctx, (), (1,))
    i = ExactComplex(0, 1)
    assert bar_star(scalar_form(ctx, 1)) == volume_form(ctx)
    assert bar_star(thb) == th.scale(-i)
    assert bar_star(th) == thb.scale(i)
    assert bar_star(bar_star(thb)) == thb.scale(-1)


def test_star_conjugate_linear():
    ctx = FiberContext(2)
    x = monomial(ctx, (1,), (2,))
    c = ExactComplex(2, -3)
    assert bar_star(x.scale(c)) == bar_star(x).scale(c.conjugate())


def test_star_rejects_mixed_bidegree():
    ctx = FiberContext(2)
    with pytest.raises(DegreeError):
        bar_star(scalar_form(ctx, 1) + monomial(ctx, (1,), ()))


def test_star_defining_property_exhaustive():
    # alpha ^ star(beta) = <alpha, beta> dv over all basis pairs, n <= 3
    # (the verify suite extends this through n = 5)
    for n in (1, 2, 3):
        ctx = FiberContext(n)
        dv = volume_form(ctx)
        for p in range(n + 1):
            for q in range(n + 1):
                basis = basis_forms(ctx, p, q)
                for a in basis:
                    for b in basis:
                        assert (wedge(a, bar_star(b))
                                - dv.scale(inner(a, b))).is_zero()


def test_star_square_sign():
    rng = random.Random(9)
    for n in (1, 2, 3, 4):
        ctx = FiberContext(n)
        for _ in range(25):
            p, q = rng.randint(0, n), rng.randint(0, n)
            x = random_form(ctx, p, q, rng)
            if x.is_zero():
                continue
            sign = -1 if (p + q) % 2 else 1
            assert (bar_star(bar_star(x)) - x.scale(sign)).is_zero()


def test_epsilon_values():
    assert epsilon(0, 1) == 1j
    assert epsilon(1, 1) == 1j
    assert epsilon(2, 1) == -1j
    assert epsilon(2, 3) == 1j


def test_epsilon_range_error():
    with pytest.raises(DegreeError):
        epsilon(3, 1)
    with pytest.raises(DegreeError):
        epsilon(-1, 2)


def test_epsilon_period_four():
    for n in (1, 2, 3):
        for k in range(2 * n - 3):
            if k + 4 <= 2 * n:
                assert epsilon(k, n) == epsilon(k + 4, n)


def test_epsilon_shift_identity_exhaustive():
    assert all(epsilon_shift_identity(n, p)
               for n in range(1, 9) for p in range(n + 1))


def test_tau_n1_closed_forms():
    ctx = FiberContext(1)
    th = monomial(ctx, (1,), ())
    thb = monomial(ctx, (), (1,))
    assert tau(thb) == th
    assert tau(th) == thb.scale(-1)
    assert tau(tau(thb)) == thb.scale(-1)


def test_tau_square_and_isometry():
    rng = random.Random(13)
    for n in (1, 2, 3, 4):
        ctx = FiberContext(n)
        sign = -1 if n % 2 else 1
        for _ in range(25):
            x = random_form(ctx, rng.randint(0, n), rng.randint(0, n), rng)
            if x.is_zero():
                continue
            assert (tau(tau(x)) - x.scale(sign)).is_zero()
            assert inner(tau(x), tau(x)) == inner(x, x)


def test_tau_conjugates_before_epsilon():
    ctx = FiberContext(1)
    thb = monomial(ctx, (), (1,))
    z = ExactComplex(1, 2)
    assert tau(thb.scale(z)) == tau(thb).scale(z.conjugate())


def test_tau_graded_matches_componentwise():
    ctx = FiberContext(2)
    x = random_form(ctx, 0, 0, seed=3) + random_form(ctx, 0, 1, seed=4)
    expected = zero_form(ctx)
    for k in sorted({p + q for p, q in x.bidegrees()}):
        comp = Form(ctx, {key: c for key, c in x.items()
                          if len(key[0]) + len(key[1]) == k})
        expected = expected + tau(comp)
    assert tau_graded(x) == expected
    with pytest.raises(DegreeError):
        tau(x)


def test_tau_real_adjoint_examples():
    ctx = FiberContext(1)
    th = monomial(ctx, (1,), ())
    thb = monomial(ctx, (), (1,))
    assert tau_adjoint_defect(thb, th) == 0
    assert tau_adjoint_defect(zero_form(ctx), th) == 0
    assert tau_adjoint_defect(thb, zero_form(ctx)) == 0


def test_tau_real_adjoint_randomized():
    # 100 random exact pairs per n, all exactly zero
    rng = random.Random(17)
    for n in (1, 2, 3, 4):
        ctx = FiberContext(n)
        for _ in range(100):
            k = rng.randint(0, 2 * n)
            p1 = rng.randint(max(0, k - n), min(n, k))
            x = random_form(ctx, p1, k - p1, rng)
            k2 = 2 * n - k
            p2 = rng.randint(max(0, k2 - n), min(n, k2))
            y = random_form(ctx, p2, k2 - p2, rng)
            assert is_zero(tau_adjoint_defect(x, y))


def test_tau_real_adjoint_degree_mismatch():
    ctx = FiberContext(2)
    with pytest.raises(DegreeError):
        tau_adjoint_defect(monomial(ctx, (1,), ()), monomial(ctx, (1,), ()))


def _unit_eta(ctx, rng):
    top = tuple(range(1, ctx.n + 1))
    return monomial(ctx, top, (), random_unit_scalar(ctx, rng))


def test_star_shift_identities_exact():
    # star(g01 ^ b) and star(contract(g10, b)) against the eta-conjugated
    # sides, over random unit eta to exercise conjugate-linearity
    rng = random.Random(23)
    for n in (1, 2, 3, 4):
        ctx = FiberContext(n)
        for p in range(n + 1):
            for _ in range(20):
                beta = random_form(ctx, 0, p, rng)
                g = random_covector(ctx, rng)
                eta = _unit_eta(ctx, rng)
                eb = wedge(eta, beta)
                lhs_a = bar_star(wedge(g.part01(), beta)) if p < n else zero_form(ctx)
                rhs_a = wedge(eta, contract(g, bar_star(eb)))
                sign_a = -1 if (n * (p + 1) + p) % 2 else 1
                assert (lhs_a - rhs_a.scale(sign_a)).is_zero()
                lhs_b = bar_star(contract(g, beta))
                rhs_b = wedge(eta, wedge(g.part01(), bar_star(eb)))
                sign_b = -1 if ((n + 1) * (p - 1)) % 2 else 1
                assert (lhs_b - rhs_b.scale(sign_b)).is_zero()

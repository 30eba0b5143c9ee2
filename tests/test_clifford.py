"""Clifford action, spinor spaces, and symbol operators."""

import random

import pytest

from cldirac import (
    ChiralityError,
    Covector,
    DegreeError,
    EVEN,
    FiberContext,
    ODD,
    Spinor,
    clifford,
    inner,
    monomial,
    random_covector,
    random_form,
    random_spinor,
    scalar_form,
    spinor_basis,
    symbol,
    tau,
    tau_graded,
    wedge,
    zero_form,
)
from cldirac.scalars import EC_SQRT2, is_zero


def test_clifford_n1_basis_action():
    ctx = FiberContext(1)
    g = Covector(ctx, (1,))
    one = scalar_form(ctx, 1)
    thb = monomial(ctx, (), (1,))
    assert clifford(g, one) == thb.scale(EC_SQRT2)
    assert clifford(g, thb) == one.scale(-EC_SQRT2)


def test_clifford_needs_antiholomorphic_input():
    ctx = FiberContext(1)
    g = Covector(ctx, (1,))
    with pytest.raises(DegreeError):
        clifford(g, monomial(ctx, (1,), ()))


def test_clifford_square_is_minus_norm():
    rng = random.Random(31)
    for n in (1, 2, 3, 4):
        ctx = FiberContext(n)
        for _ in range(40):
            x = random_form(ctx, 0, rng.randint(0, n), rng)
            g = random_covector(ctx, rng)
            assert (clifford(g, clifford(g, x)) + x.scale(g.norm_sq())).is_zero()


def test_clifford_skew_adjoint():
    rng = random.Random(37)
    for n in (1, 2, 3):
        ctx = FiberContext(n)
        for _ in range(40):
            p = rng.randint(0, n)
            a = random_form(ctx, 0, p, rng)
            b = zero_form(ctx)
            if p + 1 <= n:
                b = b + random_form(ctx, 0, p + 1, rng)
            if p >= 1:
                b = b + random_form(ctx, 0, p - 1, rng)
            g = random_covector(ctx, rng)
            assert is_zero(inner(clifford(g, a), b) + inner(a, clifford(g, b)))


def test_clifford_flips_parity():
    ctx = FiberContext(3)
    rng = random.Random(41)
    for q in range(4):
        x = random_form(ctx, 0, q, rng)
        for (ti, tj), _c in clifford(random_covector(ctx, rng), x).items():
            assert not ti
            assert len(tj) % 2 == (q + 1) % 2


def test_star_clifford_commutation():
    # tau(c(g) b) = (-1)^(n(n+1)/2 + 1) eta ^ c(g) tau(eta ^ b), |eta| = 1
    from cldirac.fiber import random_unit_scalar
    rng = random.Random(43)
    for n in (1, 2, 3, 4):
        ctx = FiberContext(n)
        top = tuple(range(1, n + 1))
        sign = -1 if (n * (n + 1) // 2 + 1) % 2 else 1
        for p in range(n + 1):
            for _ in range(15):
                beta = random_form(ctx, 0, p, rng)
                g = random_covector(ctx, rng)
                eta = monomial(ctx, top, (), random_unit_scalar(ctx, rng))
                lhs = tau_graded(clifford(g, beta))
                if beta.is_zero():
                    assert lhs.is_zero()
                    continue
                rhs = wedge(eta, clifford(g, tau(wedge(eta, beta))))
                assert (lhs - rhs.scale(sign)).is_zero()


def test_spinor_chirality_inference_and_validation():
    ctx = FiberContext(2)
    even = Spinor(ctx, [scalar_form(ctx, 1)])
    assert even.chirality == EVEN
    odd = Spinor(ctx, [monomial(ctx, (), (1,))])
    assert odd.chirality == ODD
    with pytest.raises(ChiralityError):
        Spinor(ctx, [scalar_form(ctx, 1)], chirality=ODD)
    with pytest.raises(ChiralityError):
        Spinor(ctx, [zero_form(ctx)])  # zero needs explicit chirality
    mixed = Spinor(ctx, [scalar_form(ctx, 1) + monomial(ctx, (), (1,))])
    assert mixed.chirality == "mixed"


def test_spinor_parts_must_be_antiholomorphic():
    ctx = FiberContext(2)
    with pytest.raises(DegreeError):
        Spinor(ctx, [monomial(ctx, (1,), ())])


def test_spinor_basis_ordering():
    ctx = FiberContext(2)
    basis = spinor_basis(ctx, 2, EVEN)
    # graded-lex multi-indices (), (1,2); E index fastest
    assert len(basis) == 4
    keys = [(next(iter(k for k, _ in p.items())) if not p.is_zero() else None)
            for b in basis for p in b.parts if not p.is_zero()]
    assert keys[0] == ((), ()) and keys[1] == ((), ())
    assert keys[2] == ((), (1, 2)) and keys[3] == ((), (1, 2))
    assert len(spinor_basis(ctx, 3, ODD)) == 6  # C(2,1) * 3


def test_symbol_matrix_n1():
    ctx = FiberContext(1)
    g = Covector(ctx, (1,))
    sig = symbol(g, 1, "D")
    z = Spinor(ctx, [scalar_form(ctx, 1)])
    out = sig(z)
    assert out.chirality == ODD
    assert out.parts[0] == monomial(ctx, (), (1,), EC_SQRT2)


def test_symbol_zero_covector():
    ctx = FiberContext(2)
    g = Covector(ctx, (0, 0))
    sig = symbol(g, 2, "D")
    z = random_spinor(ctx, 2, EVEN, seed=1)
    assert sig(z).is_zero()


def test_symbol_chirality_contracts():
    ctx = FiberContext(1)
    g = Covector(ctx, (1,))
    sig_d = symbol(g, 1, "D")
    z_odd = Spinor(ctx, [monomial(ctx, (), (1,))])
    with pytest.raises(ChiralityError):
        sig_d(z_odd)
    with pytest.raises(ChiralityError):
        sig_d.compose(sig_d)


def test_symbol_clifford_relation_tensored():
    rng = random.Random(47)
    for n in (1, 2, 3):
        ctx = FiberContext(n)
        for r in (1, 2, 3):
            g = random_covector(ctx, rng)
            comp = symbol(g, r, "D_star").compose(symbol(g, r, "D"))
            for z in spinor_basis(ctx, r, EVEN):
                assert (comp(z) + z.scale(g.norm_sq())).is_zero()


def test_symbol_real_linearity():
    from cldirac.fiber import random_rational
    rng = random.Random(53)
    ctx = FiberContext(2)
    for _ in range(20):
        g1 = random_covector(ctx, rng)
        g2 = random_covector(ctx, rng)
        t = random_rational(rng)
        z = random_spinor(ctx, 2, EVEN, rng)
        s_sum = symbol(g1 + g2, 2, "D")(z)
        s_parts = symbol(g1, 2, "D")(z) + symbol(g2, 2, "D")(z)
        assert (s_sum - s_parts).is_zero()
        s_scaled = symbol(g1.scale_real(t), 2, "D")(z)
        assert (s_scaled - symbol(g1, 2, "D")(z).scale(ctx.rational(t))).is_zero()


def test_trusted_spinor_chirality_is_the_inferred_one():
    # symbol images, scales and same-chirality sums skip the chirality
    # check; each label must be the one the checked constructor infers
    rng = random.Random(61)

    def assert_labelled(z, chirality):
        assert z.chirality == chirality
        if not z.is_zero():
            assert Spinor(z.ctx, z.parts).chirality == chirality

    for n in (1, 2, 3, 4):
        ctx = FiberContext(n)
        for r in (1, 2, 3):
            for g in (random_covector(ctx, rng), Covector(ctx, (0,) * n)):
                for which, source, target in (("D", EVEN, ODD), ("D_star", ODD, EVEN)):
                    z = random_spinor(ctx, r, source, rng)
                    image = symbol(g, r, which)(z)
                    assert_labelled(image, target)
                    assert_labelled(z.scale(EC_SQRT2), source)
                    assert_labelled(z + z, source)
                    assert_labelled(z - z, source)
                    if not (image.is_zero() or z.is_zero()):
                        assert (image + z).chirality == "mixed"


def test_symbol_map_called_directly_checks_a_wrong_chirality():
    # past the operator's source check, the map trusts only its source
    ctx = FiberContext(1)
    sig_d = symbol(Covector(ctx, (1,)), 1, "D")
    with pytest.raises(ChiralityError):
        sig_d.fn(Spinor(ctx, [monomial(ctx, (), (1,))]))


def test_mixed_sum_that_cancels_to_one_parity_still_raises():
    ctx = FiberContext(2)
    one, thb1 = scalar_form(ctx, 1), monomial(ctx, (), (1,))
    a = Spinor(ctx, [one + thb1])
    b = Spinor(ctx, [thb1.scale(-1) + one])
    assert a.chirality == b.chirality == "mixed"
    with pytest.raises(ChiralityError):
        a + b

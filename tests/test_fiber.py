"""Exterior fiber algebra: wedge, contraction, inner product, randomness."""

import itertools
import random

import pytest

from cldirac import (
    ContextMismatchError,
    Covector,
    DegreeError,
    FiberContext,
    Form,
    bar_star,
    clifford,
    contract,
    inner,
    monomial,
    random_covector,
    random_form,
    scalar_form,
    tau,
    tau_graded,
    wedge,
    zero_form,
)
from cldirac.fiber import (
    _complement,
    _indices,
    _mask,
    random_scalar,
    random_unit_scalar,
)
from cldirac.scalars import EC_SQRT2, ExactComplex, is_zero
from _reference import conjugate, split_key


@pytest.fixture
def ctx2():
    return FiberContext(2)


def test_wedge_basis_product():
    ctx = FiberContext(1)
    th = monomial(ctx, (1,), ())
    thb = monomial(ctx, (), (1,))
    assert wedge(th, thb) == monomial(ctx, (1,), (1,))
    assert wedge(thb, th) == monomial(ctx, (1,), (1,), -1)


def test_wedge_bilinear_expansion(ctx2):
    t1 = monomial(ctx2, (1,), ())
    t2 = monomial(ctx2, (2,), ())
    assert wedge(t1 + t2, t1 - t2) == monomial(ctx2, (1, 2), (), -2)


def test_wedge_context_mismatch():
    a = scalar_form(FiberContext(2), 1)
    b = scalar_form(FiberContext(3), 1)
    with pytest.raises(ContextMismatchError):
        wedge(a, b)


def test_graded_anticommutativity_random():
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        ctx = FiberContext(n)
        for _ in range(40):
            px, qx = rng.randint(0, n), rng.randint(0, n)
            py, qy = rng.randint(0, n), rng.randint(0, n)
            x = random_form(ctx, px, qx, rng)
            y = random_form(ctx, py, qy, rng)
            sign = -1 if ((px + qx) * (py + qy)) % 2 else 1
            assert (wedge(x, y) - wedge(y, x).scale(sign)).is_zero()


def test_contract_single_index():
    ctx = FiberContext(1)
    g = Covector(ctx, (1,))
    assert contract(g, monomial(ctx, (), (1,))) == scalar_form(ctx, 1)


def test_contract_scalar_annihilation(ctx2):
    g = random_covector(ctx2, 3)
    assert contract(g, scalar_form(ctx2, 5)).is_zero()


def test_contract_antiderivation_sign(ctx2):
    g = Covector(ctx2, (0, 1))
    x = monomial(ctx2, (), (1, 2))
    assert contract(g, x) == monomial(ctx2, (), (1,), -1)


def test_contract_conjugate_linear_in_covector():
    ctx = FiberContext(1)
    g = Covector(ctx, (ExactComplex(0, 1),))  # a = i
    # contraction uses conj(a), so the result is -i
    assert contract(g, monomial(ctx, (), (1,))) == scalar_form(ctx, ExactComplex(0, -1))


def test_contract_passes_theta_block():
    ctx = FiberContext(1)
    g = Covector(ctx, (1,))
    x = monomial(ctx, (1,), (1,))
    assert contract(g, x) == monomial(ctx, (1,), (), -1)


def test_double_contraction_zero():
    rng = random.Random(11)
    ctx = FiberContext(3)
    for _ in range(30):
        g = random_covector(ctx, rng)
        x = random_form(ctx, rng.randint(0, 3), rng.randint(0, 3), rng)
        assert contract(g, contract(g, x)).is_zero()


def test_inner_orthonormal_basis(ctx2):
    b = monomial(ctx2, (1,), (2,))
    assert inner(b, b) == 1
    th = monomial(ctx2, (1,), ())
    thb = monomial(ctx2, (), (1,))
    assert is_zero(inner(th, thb))


def test_inner_sesquilinear(ctx2):
    x = monomial(ctx2, (1,), ())
    c = ExactComplex(2, 1)
    assert inner(x.scale(c), x) == c
    assert inner(x, x.scale(c)) == c.conjugate()


def test_adjunction_random_triples():
    rng = random.Random(7)
    for n in (1, 2, 3):
        ctx = FiberContext(n)
        for _ in range(50):
            p = rng.randint(0, n - 1)
            a = random_form(ctx, 0, p, rng)
            b = random_form(ctx, 0, p + 1, rng)
            g = random_covector(ctx, rng)
            assert inner(wedge(g.part01(), a), b) == inner(a, contract(g, b))


def test_covector_norm():
    ctx = FiberContext(2)
    g = Covector(ctx, (ExactComplex(1), ExactComplex(0, 1)))
    assert g.norm_sq() == 4  # 2 * (1 + 1)
    # matches the hermitian norm of the two parts
    g10 = conjugate(g.part01())
    total = inner(g.part01(), g.part01()) + inner(g10, g10)
    assert g.norm_sq() == total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_covector_norm_sq_is_twice_the_sum_of_squared_moduli(n):
    rng = random.Random(300 + n)
    ctx = FiberContext(n)
    for _ in range(10):
        a = tuple(random_scalar(ctx, rng) + random_scalar(ctx, rng) * EC_SQRT2
                  for _ in range(n))
        want = ExactComplex()
        for c in a:
            want = want + c * c.conjugate()
        assert Covector(ctx, a).norm_sq() == want + want


def test_random_form_deterministic():
    ctx = FiberContext(2)
    assert random_form(ctx, 0, 1, seed=7) == random_form(ctx, 0, 1, seed=7)


def test_random_form_range_error():
    ctx = FiberContext(2)
    with pytest.raises(DegreeError):
        random_form(ctx, 3, 0, seed=1)


def test_random_form_term_bound():
    f = random_form(FiberContext(3), 0, 2, seed=1)
    assert len(f.items()) <= 3  # C(3, 2)


def test_random_unit_scalar_exact():
    ctx = FiberContext(2)
    for seed in range(10):
        u = random_unit_scalar(ctx, seed)
        assert u * u.conjugate() == 1


def test_form_purity_queries():
    ctx = FiberContext(2)
    pure = monomial(ctx, (1,), (2,))
    assert pure.is_pure() and pure.bidegrees() == {(1, 1)}
    mixed = pure + scalar_form(ctx, 1)
    assert not mixed.is_pure()
    assert mixed.bidegrees() == {(1, 1), (0, 0)}
    with pytest.raises(DegreeError):
        mixed.total_degree()


def test_form_conjugate_involution():
    rng = random.Random(2)
    ctx = FiberContext(3)
    for _ in range(20):
        x = random_form(ctx, rng.randint(0, 3), rng.randint(0, 3), rng)
        assert conjugate(conjugate(x)) == x


def test_exact_mode_rejects_floats():
    ctx = FiberContext(1)
    with pytest.raises(TypeError):
        scalar_form(ctx, 0.5)


def _assert_checked_form(f):
    # internal operations build Forms without the public constructor's key
    # and scalar checks; rebuilding through it must give the same Form
    assert Form(f.ctx, dict(f.items())) == f
    assert all(type(c) is ExactComplex and c for _key, c in f.items())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_internal_constructions_equal_checked_forms(n):
    rng = random.Random(100 + n)
    ctx = FiberContext(n)
    for _ in range(15):
        x = random_form(ctx, rng.randint(0, n), rng.randint(0, n), rng)
        y = random_form(ctx, rng.randint(0, n), rng.randint(0, n), rng)
        s = random_form(ctx, 0, rng.randint(0, n), rng)
        g = random_covector(ctx, rng)
        c = ExactComplex(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-1, 1))
        results = [x, wedge(x, y), wedge(x, x), contract(g, x),
                   contract(g, contract(g, x)), bar_star(x), tau(x),
                   tau_graded(x + y), clifford(g, s), clifford(g, clifford(g, s)),
                   x + y, x - y, x - x, x + (-x), x.scale(c), x.scale(0),
                   g.part01()]
        for f in results:
            _assert_checked_form(f)


# -- bitmask keys against the tuple formulas -----------------------------------
#
# Keys are stored as bitmasks; these references keep the earlier formulas on
# increasing index tuples.

def _merge_reference(a, b):
    """(inversions, merged) of two increasing tuples, or None if they
    overlap; an inversion is a pair (x in a, y in b) with x > y."""
    if set(a) & set(b):
        return None
    inv = sum(1 for x in a for y in b if x > y)
    return inv, tuple(sorted(a + b))


def _all_keys(n):
    subsets = [t for k in range(n + 1)
               for t in itertools.combinations(range(1, n + 1), k)]
    return [(ti, tj) for ti in subsets for tj in subsets]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_wedge_of_basis_monomials_matches_tuple_merge(n):
    ctx = FiberContext(n)
    keys = _all_keys(n)
    monos = [monomial(ctx, ti, tj) for ti, tj in keys]
    for (ti, tj), x in zip(keys, monos):
        for (tk, tl), y in zip(keys, monos):
            m1, m2 = _merge_reference(ti, tk), _merge_reference(tj, tl)
            if m1 is None or m2 is None:
                expected = []
            else:
                sign = (-1) ** (len(tj) * len(tk) + m1[0] + m2[0])
                expected = [((m1[1], m2[1]), sign)]
            assert wedge(x, y).items() == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_complement_key_and_parity_match_tuple_formula(n):
    ctx = FiberContext(n)
    for ti, tj in _all_keys(n):
        tic = tuple(i for i in range(1, n + 1) if i not in ti)
        tjc = tuple(j for j in range(1, n + 1) if j not in tj)
        parity = (len(tj) * len(tic) + _merge_reference(ti, tic)[0]
                  + _merge_reference(tj, tjc)[0]) % 2
        (key,) = monomial(ctx, ti, tj)._terms
        assert split_key(key, n) == (_mask(ti, n), _mask(tj, n))
        ckey, got = _complement(key, n)
        assert (*map(_indices, split_key(ckey, n)), got) == (tic, tjc, parity)
        star = bar_star(monomial(ctx, ti, tj))
        assert star.items() == [((tic, tjc), ctx.ipow(n * n + 2 * parity))]


def test_items_in_graded_lex_tuple_order():
    ctx = FiberContext(4)
    f = random_form(ctx, 2, 2, seed=3) + random_form(ctx, 1, 3, seed=4)
    keys = [key for key, _c in f.items()]
    assert keys == sorted(keys, key=lambda k: (len(k[0]), k[0], len(k[1]), k[1]))
    assert ((1, 4), (2, 3)) in keys and ((2, 3), (1, 4)) in keys


def test_form_keys_validate_index_tuples():
    ctx = FiberContext(3)
    f = monomial(ctx, (1, 2), (3,), 5)
    assert dict(f.items()) == {((1, 2), (3,)): 5}
    for ti, tj in [((2, 1), (3,)), ((1, 1), ()), ((0,), ()), ((), (4,))]:
        with pytest.raises(ValueError):
            Form(ctx, {(ti, tj): 1})


def test_bidegrees():
    ctx = FiberContext(3)
    f = monomial(ctx, (1,), (2, 3)) + monomial(ctx, (2,), (1, 3)) + scalar_form(ctx, 1)
    assert f.bidegrees() == {(1, 2), (0, 0)}
    assert zero_form(ctx).bidegrees() == set()

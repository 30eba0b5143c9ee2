"""The fused exact kernels against the term-by-term formulation they replace.

wedge, contract, clifford, bar_star, tau, tau_graded and Form.scale work on
the raw scalar tuples and canonicalise once per output coefficient (or apply
a phase, which needs no gcd).  The references below rebuild each map from
ExactComplex operators and ``fiber._swaps``, one product and one sum at a
time, on inputs whose coefficients carry sqrt2 parts and mixed denominators.
They split each stored int key of a Form into its half-keys (I, J) with
``_reference.split_key``.
The draw tests pin the random stream to the randint/choice formulation, and
the mutation tests show that the sign tables are live and that the suites
catch one wrong sign.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cldirac import (
    Covector,
    DegreeError,
    FiberContext,
    Form,
    bar_star,
    clifford,
    contract,
    random_form,
    tau,
    tau_graded,
    wedge,
)
from cldirac import fiber
from cldirac.fiber import _indices, _swaps
from cldirac.hodge import epsilon_exponent
from cldirac.scalars import EC_I, EC_ONE, EC_SQRT2, EC_ZERO, ExactComplex
from cldirac.suites import verify_suite
from _reference import split_key
from cldirac.torus import SimConfig, TorusOperator, complex_to_flat, flat_to_complex, phi_field
from cldirac.torus import kernels, operators


# -- references ---------------------------------------------------------------

def _public(ctx, masked: dict) -> Form:
    """A Form through the checked constructor, from (I, J) half-key pairs."""
    return Form(ctx, {(_indices(ti), _indices(tj)): c
                      for (ti, tj), c in masked.items()})


def _masked(x: Form) -> list:
    """The stored terms of x as ((I, J), ExactComplex) pairs."""
    n = x.ctx.n
    return [(split_key(key, n), ExactComplex(*(Fraction(v, t[4]) for v in t[:4])))
            for key, t in x._terms.items()]


def _add_to(out, key, val):
    out[key] = out.get(key, EC_ZERO) + val


def _ipow(e):
    z = EC_ONE
    for _ in range(e % 4):
        z = z * EC_I
    return z


def ref_wedge(x, y):
    out = {}
    for (ti, tj), c in _masked(x):
        for (tk, tl), d in _masked(y):
            if ti & tk or tj & tl:
                continue
            sign = tj.bit_count() * tk.bit_count() + _swaps(ti, tk) + _swaps(tj, tl)
            _add_to(out, (ti | tk, tj | tl), -(c * d) if sign % 2 else c * d)
    return _public(x.ctx, out)


def ref_contract(g, x):
    out = {}
    for (ti, tj), c in _masked(x):
        for j, a in enumerate(g.a):
            low = 1 << j
            if tj & low:
                # thb^j passes the th factors and the thb factors below it
                sign = ti.bit_count() + _swaps(low, tj)
                val = c * a.conjugate()
                _add_to(out, (ti, tj ^ low), -val if sign % 2 else val)
    return _public(x.ctx, out)


def ref_clifford(g, x):
    part01 = _public(g.ctx, {(0, 1 << j): a for j, a in enumerate(g.a)})
    w, k = ref_wedge(part01, x), ref_contract(g, x)
    out = {}
    for key, c in _masked(w):
        _add_to(out, key, c * EC_SQRT2)
    for key, c in _masked(k):
        _add_to(out, key, -(c * EC_SQRT2))
    return _public(g.ctx, out)


def ref_star(x, with_epsilon):
    n = x.ctx.n
    full = (1 << n) - 1
    out = {}
    for (ti, tj), c in _masked(x):
        tic, tjc = full ^ ti, full ^ tj
        parity = tj.bit_count() * tic.bit_count() + _swaps(ti, tic) + _swaps(tj, tjc)
        e = n * n + 2 * parity
        if with_epsilon:
            e += epsilon_exponent(ti.bit_count() + tj.bit_count(), n)
        out[(tic, tjc)] = c.conjugate() * _ipow(e)
    return _public(x.ctx, out)


def ref_scale(x, s):
    return _public(x.ctx, {key: c * s for key, c in _masked(x)})


# -- inputs -------------------------------------------------------------------

def _part(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 6)) if rng.random() < 0.8 else 0


def _coeff(rng):
    """A nonzero scalar; about half have a sqrt2 part."""
    while True:
        if rng.random() < 0.5:
            z = ExactComplex(_part(rng), _part(rng))
        else:
            z = ExactComplex(_part(rng), _part(rng), _part(rng), _part(rng))
        if z:
            return z


def _form(ctx, bidegrees, rng, max_terms=None):
    """A form on the given bidegrees, with at most max_terms terms each."""
    terms = {}
    for p, q in bidegrees:
        keys = list(itertools.product(itertools.combinations(range(1, ctx.n + 1), p),
                                      itertools.combinations(range(1, ctx.n + 1), q)))
        if max_terms is not None and len(keys) > max_terms:
            keys = rng.sample(keys, max_terms)
        for key in keys:
            terms[key] = _coeff(rng)
    return Form(ctx, terms)


def _covector(ctx, rng):
    """Some entries are zero, so the kernels' skip of a_j = 0 is reached."""
    return Covector(ctx, tuple(_coeff(rng) if rng.random() < 0.8 else 0
                               for _ in range(ctx.n)))


def _bidegrees(n):
    return [(p, q) for p in range(n + 1) for q in range(n + 1)]


def _max_terms(n):
    # dense through n = 4, so that many products land on each output key
    return None if n <= 4 else 6


def _assert_stored_canonical(f: Form):
    n = f.ctx.n
    for key, t in f._terms.items():
        assert type(key) is int and 0 <= key and split_key(key, n)[1] >> n == 0
        a, b, c2, d, q = t
        assert type(t) is tuple and all(type(v) is int for v in t)
        assert q > 0 and math.gcd(a, b, c2, d, q) == 1
        assert (a, b, c2, d) != (0, 0, 0, 0)


def _check(got, want):
    assert got == want
    _assert_stored_canonical(got)


# -- oracle tests -------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_wedge_matches_reference(n):
    ctx = FiberContext(n)
    rng = random.Random(100 + n)
    forms = [_form(ctx, [bd], rng, _max_terms(n)) for bd in _bidegrees(n)]
    pairs = list(itertools.product(forms, forms))
    if n == 4:
        pairs = rng.sample(pairs, 120)
    for x, y in pairs:
        _check(wedge(x, y), ref_wedge(x, y))
    mixed = _form(ctx, _bidegrees(n), rng, 3)
    _check(wedge(mixed, mixed), ref_wedge(mixed, mixed))


# the phase branch (powers of i), then the product branch: a non-unit Q(i)
# value and a value with a sqrt2 part
_ONE_TERM_COEFFS = (EC_ONE, EC_I, -EC_ONE, -EC_I,
                    ExactComplex(Fraction(2, 3), -1), ExactComplex(1, 0, Fraction(-1, 2), 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_one_term_wedge_matches_reference(n):
    ctx = FiberContext(n)
    rng = random.Random(150 + n)
    words = [((), ()), ((1,), ()), ((), (n,)), (tuple(range(1, n + 1)), ()),
             ((n,), tuple(range(1, n + 1)))]
    for bd in _bidegrees(n):
        x = _form(ctx, [bd], rng, _max_terms(n))
        for word, c in itertools.product(words, _ONE_TERM_COEFFS):
            one = Form(ctx, {word: c})
            _check(wedge(one, x), ref_wedge(one, x))
            _check(wedge(x, one), ref_wedge(x, one))
    # every product overlaps: the word holds a letter of each term
    th1 = Form(ctx, {((1,), ()): EC_I})
    x = Form(ctx, {((1,), tj): _coeff(rng) for tj in [(), (n,)]})
    assert wedge(th1, x).is_zero() and wedge(x, th1).is_zero()
    # an empty side
    for y in (x, th1, Form(ctx)):
        assert wedge(y, Form(ctx)) == Form(ctx) == wedge(Form(ctx), y)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_contract_and_clifford_match_reference(n):
    ctx = FiberContext(n)
    rng = random.Random(200 + n)
    for p, q in _bidegrees(n):
        x = _form(ctx, [(p, q)], rng, _max_terms(n))
        g = _covector(ctx, rng)
        _check(contract(g, x), ref_contract(g, x))
        if p == 0:
            _check(clifford(g, x), ref_clifford(g, x))
    spinor = _form(ctx, [(0, q) for q in range(n + 1)], rng, _max_terms(n))
    g = _covector(ctx, rng)
    twice = clifford(g, clifford(g, spinor))
    _check(twice, ref_clifford(g, ref_clifford(g, spinor)))
    assert twice == ref_scale(spinor, -g.norm_sq())
    _check(clifford(Covector(ctx, (0,) * n), spinor), Form(ctx))
    with pytest.raises(DegreeError):
        clifford(g, _form(ctx, [(1, 0)], rng))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_star_and_tau_match_reference(n):
    ctx = FiberContext(n)
    rng = random.Random(300 + n)
    for p, q in _bidegrees(n):
        x = _form(ctx, [(p, q)], rng, _max_terms(n))
        _check(bar_star(x), ref_star(x, False))
        _check(tau(x), ref_star(x, True))
    for k in range(2 * n + 1):
        same_k = [(p, k - p) for p in range(n + 1) if 0 <= k - p <= n]
        x = _form(ctx, same_k, rng, _max_terms(n))
        _check(tau(x), ref_star(x, True))
    mixed = _form(ctx, _bidegrees(n), rng, _max_terms(n))
    _check(tau_graded(mixed), ref_star(mixed, True))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_scale_matches_reference(n):
    ctx = FiberContext(n)
    rng = random.Random(400 + n)
    scalars = [EC_ONE, EC_I, -EC_ONE, -EC_I, EC_ZERO, EC_SQRT2, ExactComplex(2),
               ExactComplex(Fraction(1, 2)), ExactComplex(0, 3), EC_I * EC_SQRT2]
    scalars += [_coeff(rng) for _ in range(4)]
    for p, q in _bidegrees(n):
        x = _form(ctx, [(p, q)], rng, _max_terms(n))
        for s in scalars:
            _check(x.scale(s), ref_scale(x, s))
    x = _form(ctx, [(1, 0)], rng)
    assert x.scale(1) == x and x.scale(Fraction(-1)) == ref_scale(x, -EC_ONE)


def test_tables_match_swaps():
    for a in range(64):
        for b in range(64):
            assert (a & fiber._ODD_BELOW[b]).bit_count() % 2 == _swaps(a, b) % 2
        for n in range(a.bit_length(), 8):
            full = (1 << n) - 1
            assert fiber._COMPLEMENT_PARITY[a] == _swaps(a, full ^ a) % 2


# -- the random stream --------------------------------------------------------
#
# test_scalars.py pins random_scalar and random_unit_scalar draw by draw;
# random_form draws the same scalars inline and drops the zeros.

def _reference_scalar(rng):
    ra, qa = rng.randint(-3, 3), rng.choice((1, 2, 3))
    rb, qb = rng.randint(-3, 3), rng.choice((1, 2, 3))
    return ExactComplex(Fraction(ra, qa), Fraction(rb, qb))


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_random_form_draws_match_randint_and_choice(seed):
    fast, ref = random.Random(seed), random.Random(seed)
    for n in (1, 2, 3, 4):
        ctx = FiberContext(n)
        for p, q in _bidegrees(n):
            got = random_form(ctx, p, q, fast)
            want = Form(ctx, {(ti, tj): _reference_scalar(ref)
                              for ti in itertools.combinations(range(1, n + 1), p)
                              for tj in itertools.combinations(range(1, n + 1), q)})
            assert got == want
            assert fast.getstate() == ref.getstate()


# -- mutation checks ----------------------------------------------------------

def _failing(records, prefix=""):
    return [r.identity for r in records
            if not r.passed and r.identity.startswith(prefix)]


def test_a_flipped_wedge_sign_fails_the_suites(monkeypatch):
    assert _failing(verify_suite(2, 5, 1)) == []
    # key 0b01 is the word th^1 alone, and bit 0b10 is the letter th^2 for
    # n >= 2 and thb^1 at n = 1: this flips the sign of x ^ th^1 for every
    # basis word x that holds that letter (and not th^1); no other product
    # changes
    monkeypatch.setitem(fiber._ODD_BELOW, 0b01, fiber._ODD_BELOW[0b01] ^ 0b10)
    assert "wedge_anticommute" in _failing(verify_suite(2, 5, 1))


def _torus_defect(cfg):
    """max |D x - ds_apply(x)| / max |ds_apply(x)| for a random x: the
    torus operator, built from the fiber maps, against the hand-written
    FFT reference."""
    op = TorusOperator(cfg, 4.0)
    x = np.random.default_rng(0).standard_normal(op.nreal)
    want = complex_to_flat(kernels.ds_apply(
        flat_to_complex(x, op.K), phi_field(cfg), op.s, cfg.spacing))
    return np.max(np.abs(op.D @ x - want)) / np.max(np.abs(want))


def test_a_flipped_star_phase_fails_star_defining(monkeypatch):
    cfg = SimConfig(N=16)
    assert _torus_defect(cfg) <= 4e-15
    # key 0b01 is the word th^1 alone: this flips the sign of its star and
    # of no other, at every n; at n = 1 th^1 is the top (1, 0) frame, which
    # A wedges onto the spinor 1 before tau
    monkeypatch.setitem(fiber._COMPLEMENT_PARITY, 0b01,
                        1 - fiber._COMPLEMENT_PARITY[0b01])
    assert _failing(verify_suite(2, 5, 1), "star_defining") != []
    # A reaches the torus operator through apply_A's tau, so the flip does too
    operators.fiber_maps.cache_clear()
    try:
        assert _torus_defect(cfg) > 0.1
    finally:
        operators.fiber_maps.cache_clear()

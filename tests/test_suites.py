"""Identity-suite bookkeeping: the exact verdict, the family table, seeds."""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import cldirac
from cldirac import (
    Covector,
    FiberContext,
    concentrating_defect,
    monomial,
    opposite_class,
    random_covector,
    random_form,
    zero_form,
)
from cldirac.errors import UsageError
from cldirac.fiber import random_nonzero_covector
from cldirac.perturbation import random_nonzero_phi
from cldirac.scalars import EC_ZERO, ExactComplex
from cldirac.suites import (
    _clifford_real_linear,
    _describe,
    _run,
    condition_suite,
    stable_seed,
    verify_suite,
)

# nonzero in Q(i, sqrt2), but -1.4142135623730951 + sqrt2 rounds to 0.0
TINY = ExactComplex(Fraction(-14142135623730951, 10 ** 16), 0, 1, 0)


def test_run_counts_exact_nonzero_defect_that_rounds_to_zero():
    assert TINY and TINY.to_complex() == 0j
    record = _run("tiny", 1, 0, 1, 1,
                  lambda rng: (TINY, EC_ZERO, lambda: "the tiny input"))
    assert record.failures == 1 and not record.passed
    assert record.counterexample == "the tiny input"
    assert record.max_defect == 0.0


def _never():
    raise AssertionError("describe() was called for a passing trial")


def test_run_form_defects():
    ctx = FiberContext(2)
    zero = monomial(ctx, (1,), (), 0)
    tiny = monomial(ctx, (1,), (2,), TINY)
    outcomes = iter([(zero, zero_form(ctx), lambda: "a"),
                     (tiny, zero_form(ctx), lambda: "b"),
                     (monomial(ctx, (), (), 3), zero_form(ctx), lambda: "c"),
                     (zero, zero_form(ctx), lambda: "d")])
    record = _run("forms", 2, 1, 4, 1, lambda rng: next(outcomes))
    assert record.failures == 2
    assert record.max_defect == 3.0 and record.counterexample == "c"
    # equal sides pass without building their text, whatever the order in
    # which their terms were made
    u, v = monomial(ctx, (1,), (2,), ExactComplex(1, 2)), monomial(ctx, (2,), (), 5)
    equal = iter([(u + v, v + u, _never), (u - u, zero_form(ctx), _never),
                  (ExactComplex(0, 1), ctx.i, _never)])
    record = _run("equal", 2, 1, 3, 1, lambda rng: next(equal))
    assert (record.failures, record.max_defect, record.counterexample) == (0, 0.0, None)
    # unequal sides: max_defect is |lhs - rhs| (here 4 th1 - 3 th2 and 3 + 4i)
    thb2 = monomial(ctx, (), (2,), 1)
    for lhs, rhs in [(monomial(ctx, (1,), (), 4) + thb2, thb2 + monomial(ctx, (2,), (), 3)),
                     (ExactComplex(1, 2), ExactComplex(-2, -2))]:
        record = _run("unequal", 2, 1, 1, 1, lambda rng: (lhs, rhs, lambda: "sides"))
        assert (record.failures, record.max_defect, record.counterexample) == (1, 5.0, "sides")


def test_describe_prints_a_covector_as_its_01_part():
    rng = random.Random(5)
    for n in (1, 2, 3):
        ctx = FiberContext(n)
        x = random_form(ctx, 0, 1, rng)
        for g in (random_covector(ctx, rng), Covector(ctx, (0,) * n),
                  Covector(ctx, (Fraction(1, 2),) + (0,) * (n - 1))):
            assert _describe(x=x, gamma=g) == _describe(x=x, gamma=g.part01())
            assert _describe(gamma=g) == f"gamma={g.part01().text()}"


def test_forced_real_linear_failure_names_both_covectors(monkeypatch):
    # c(g) applied twice is quadratic in g, so additivity fails
    from cldirac.suites import clifford
    monkeypatch.setattr("cldirac.suites.clifford",
                        lambda g, x: clifford(g, clifford(g, x)))
    ctx = FiberContext(2)
    record = _run("clifford_real_linear", 2, 1, 1, 1,
                  lambda rng: _clifford_real_linear(ctx, 1, rng))
    assert record.failures == 1
    # the inputs, drawn again in the order the check draws them
    rng = random.Random(stable_seed(1, "clifford_real_linear", 2, 1))
    x = random_form(ctx, 0, 1, rng)
    g1, g2 = random_covector(ctx, rng), random_covector(ctx, rng)
    assert record.counterexample == (f"x={x.text()}; g1={g1.part01().text()}; "
                                     f"g2={g2.part01().text()}")
    assert "thb" in g1.part01().text() + g2.part01().text()


def test_failing_epsilon_shift_is_one_failed_trial(monkeypatch):
    monkeypatch.setattr("cldirac.suites.epsilon_shift_identity",
                        lambda n, p: (n, p) != (3, 1))
    records = [r for r in verify_suite(1, 1, 1) if r.identity == "epsilon_shift"]
    bad = [r for r in records if not r.passed]
    assert [(r.n, r.p, r.trials, r.failures, r.max_defect, r.counterexample)
            for r in bad] == [(3, 1, 1, 1, 1.0, "n=3, p=1")]
    assert all(r.trials == 1 and r.max_defect == 0.0 and r.counterexample is None
               for r in records if r.passed)


def _expected_keys(n_max, trials):
    per_p = ("wedge_anticommute", "wedge_associative", "contract_antiderivation",
             "contract_twice_zero", "star_square", "tau_square", "tau_isometry",
             "star_wedge_shift", "star_contract_shift",
             "star_clifford_commutation", "clifford_square",
             "clifford_skew_adjoint", "clifford_parity_flip",
             "clifford_real_linear", "adjunction")
    keys = set()
    for n in range(1, n_max + 1):
        keys |= {(name, n, p, trials) for name in per_p for p in range(n + 1)}
        keys |= {("tau_real_adjoint", n, k, trials) for k in range(2 * n + 1)}
        keys |= {("symbol_clifford_relation", n, r, max(1, trials // 10))
                 for r in (1, 2, 3, 4)}
        # every pair of same-bidegree basis forms of bidegree (p, q), all q
        keys |= {("star_defining", n, p, math.comb(n, p) ** 2 * math.comb(2 * n, n))
                 for p in range(n + 1)}
    keys |= {("epsilon_shift", n, p, 1) for n in range(1, 9) for p in range(n + 1)}
    return keys


def test_verify_suite_covers_every_family():
    records = verify_suite(n_max=3, trials=4, seed=1)
    keys = [(r.identity, r.n, r.p, r.trials) for r in records]
    assert len(keys) == len(set(keys))
    assert set(keys) == _expected_keys(3, 4)
    assert all(r.passed and r.max_defect == 0.0 for r in records)


_RECORD_DRAWS = """
import json
import cldirac.suites as suites
drawn = []
original = suites.random_form

def random_form(ctx, p, q, seed):
    form = original(ctx, p, q, seed)
    drawn.append(form.text())
    return form

suites.random_form = random_form
suites.verify_suite(n_max=2, trials=2, seed=1)
print(json.dumps(drawn))
"""


def _draws(hash_seed):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cldirac.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", _RECORD_DRAWS], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_suite_inputs_do_not_depend_on_hash_seed():
    first = _draws(1)
    assert first
    assert first == _draws(2)



def test_wrong_class_rates_are_the_float_defect_rates():
    # the wrong-class rows stop each draw at its first nonzero image; the
    # same draws, each defect evaluated in full, give the same rates
    for seed in (1, 2, 3):
        report = condition_suite([1, 3], [1, 2, 3, 4], trials=1, seed=seed)
        expected = []
        for n in (1, 3):
            ctx, cls = FiberContext(n), opposite_class(n)
            usable_r = [1, 2, 3, 4] if cls == "symmetric" else [2, 3, 4]
            rng = random.Random(stable_seed(seed, "wrong", n))
            nonzero = 0
            for t in range(200):
                phi = random_nonzero_phi(ctx, usable_r[t % len(usable_r)], cls, rng)
                g = random_nonzero_covector(ctx, rng)
                nonzero += concentrating_defect(phi, g) > 0.0
            expected.append(nonzero / 200)
        assert [row["nonzero_rate"] for row in report.wrong] == expected


def test_condition_runs_at_n_9():
    # the second Bott period: n = 9 is the symmetric class; a few draws
    # decide every row exactly, as at n <= 7
    report = condition_suite([9], [1, 2, 3], trials=1, seed=2, wrong_trials=4)
    assert report.verdicts() == [True] * 6
    assert [(row["r"], row["phi_class"], row["failures"], row["max_defect"])
            for row in report.correct] == [(r, "symmetric", 0, 0.0) for r in (1, 2, 3)]
    assert [(row["phi_class"], row["r_values"], row["nonzero_rate"])
            for row in report.wrong] == [("antisymmetric", [2, 3], 1.0)]
    assert [row["all_singular"] for row in report.odd_rank] == [True, True]


def test_condition_names_its_dimension_bound():
    with pytest.raises(UsageError, match=r"odd 1 <= n <= 11"):
        condition_suite([13], [1], trials=1, seed=2)

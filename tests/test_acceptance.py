"""Acceptance suite: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` for the per-criterion
pass/fail lines.  Criterion 3 is checked at n = 1, 3 as the CLI's default
condition run does, and at n = 5, 7 as its --long run adds.
"""

import math
import random
import time

from cldirac import (
    ANTISYMMETRIC,
    EVEN,
    FiberContext,
    PhiMap,
    SYMMETRIC,
    Spinor,
    apply_A,
    apply_A_adjoint,
    bar_star,
    concentrating_defect,
    monomial,
    random_covector,
    random_phi,
    scalar_form,
    symbol,
    tau,
)
from cldirac.fiber import random_nonzero_covector, random_scalar
from cldirac.scalars import ExactComplex
from cldirac.suites import condition_suite, verify_suite
from cldirac.torus import (
    SimConfig,
    TorusOperator,
    dense_sigma_min,
    normal_eigenpairs,
    run_sweep,
)
from cldirac.torus.config import load_config, preset_path


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


IDENTITY_SUITE_NAMES = {
    "star_wedge_shift", "star_contract_shift",       # star/wedge interchange
    "star_clifford_commutation",                     # tau vs Clifford
    "tau_real_adjoint",                              # real-part adjoint law
    "star_square", "tau_square",                     # involution signs
    "adjunction",                                    # wedge/contraction adjoint
    "clifford_skew_adjoint",                         # skew-adjointness
}


def test_criterion_1_exact_identity_suite():
    """All stated identities, exactly zero defect, 0 <= p <= n <= 4,
    >= 50 trials per (identity, n, p), within 2 minutes."""
    t0 = time.monotonic()
    records = verify_suite(n_max=4, trials=50, seed=101)
    elapsed = time.monotonic() - t0
    relevant = [r for r in records if r.identity in IDENTITY_SUITE_NAMES]
    assert relevant, "identity families missing from the suite"
    per_family = {}
    for r in relevant:
        per_family.setdefault(r.identity, []).append(r)
    assert set(per_family) == IDENTITY_SUITE_NAMES
    bad = [r for r in relevant if not r.passed or r.max_defect != 0.0]
    enough = all(r.trials >= 50 for r in relevant)
    others = [r for r in records if r.identity not in IDENTITY_SUITE_NAMES]
    bad_others = [r for r in others if not r.passed]
    _report("criterion 1: exact identity suite (n <= 4, 50 trials each)",
            not bad and not bad_others and enough and elapsed <= 120.0,
            f"{len(relevant)} tracked entries + {len(others)} supporting, "
            f"{len(bad) + len(bad_others)} failures, {elapsed:.1f}s")


def test_criterion_2_epsilon_table():
    """Degree-shift unit identity, exhaustive over 0 <= p <= n <= 8."""
    from cldirac import epsilon_shift_identity
    checked = [(n, p) for n in range(1, 9) for p in range(n + 1)]
    failures = [(n, p) for (n, p) in checked if not epsilon_shift_identity(n, p)]
    _report("criterion 2: epsilon shift identity table (n <= 8, exhaustive)",
            not failures, f"{len(checked)} pairs, failures: {failures}")


def test_criterion_3_concentrating_condition():
    """Zero defect for the matched class (n = 1 symmetric, n = 3
    antisymmetric; r in 1..4, 50 draws each); wrong class nonzero in
    >= 95% of 200 draws; odd-rank antisymmetric always singular."""
    report = condition_suite([1, 3], [1, 2, 3, 4], trials=50, seed=202,
                             wrong_trials=200)
    zero_ok = all(row["max_defect"] == 0.0 and row["failures"] == 0
                  for row in report.correct)
    rate_ok = all(row["nonzero_rate"] >= 0.95 for row in report.wrong)
    sing_ok = all(row["all_singular"] for row in report.odd_rank)
    detail = (f"{len(report.correct)} matched-class cells all zero: {zero_ok}; "
              f"wrong-class rates {[row['nonzero_rate'] for row in report.wrong]}; "
              f"odd-rank singular: {sing_ok}")
    _report("criterion 3: concentrating condition by symmetry class",
            zero_ok and rate_ok and sing_ok, detail)


def test_criterion_3_long_n5():
    """n = 5 (dimension 10 = 2 mod 8): symmetric class cancels."""
    rng = random.Random(303)
    ctx = FiberContext(5)
    for r in (1, 2, 3, 4):
        for _ in range(50):
            phi = random_phi(ctx, r, SYMMETRIC, rng)
            g = random_covector(ctx, rng)
            assert concentrating_defect(phi, g) == 0.0
    _report("criterion 3 (long): n = 5 symmetric zero defect", True)


def test_criterion_3_long_n7():
    """n = 7 (dimension 14 = 6 mod 8): antisymmetric class cancels."""
    rng = random.Random(707)
    ctx = FiberContext(7)
    for r in (1, 2, 3, 4):
        for _ in range(50):
            phi = random_phi(ctx, r, ANTISYMMETRIC, rng)
            g = random_covector(ctx, rng)
            assert concentrating_defect(phi, g) == 0.0
    _report("criterion 3 (long): n = 7 antisymmetric zero defect", True)


def test_criterion_4_empty_singular_set_oracle():
    """Constant preset at N = 64: sigma_min(D_s) = s within 1% for
    s in {8,16,32,64}; dense cross-check at N = 16; trivial kernel;
    within 3 minutes."""
    t0 = time.monotonic()
    config = load_config(preset_path("constant.cfg"))
    assert config.N == 64 and config.s_values == (8.0, 16.0, 32.0, 64.0)
    report = run_sweep(config)
    sigma_ok = all(abs(r.sigma_min - r.s) <= 0.01 * r.s for r in report.rows)
    kernel_ok = all(r.sigma_min > 0.99 * r.s for r in report.rows)

    small = SimConfig(N=16, s_values=(4.0,), phi_preset="constant(1)",
                      delta=0.5, eig_count=2, eig_tol=1e-9, seed=7)
    op16 = TorusOperator(small, 4.0)
    iterative16 = math.sqrt(normal_eigenpairs(op16, small).values[0])
    dense16 = dense_sigma_min(op16)
    cross_ok = (abs(dense16 - 4.0) <= 0.01 * 4.0
                and abs(iterative16 - dense16) <= 0.01 * 4.0)
    elapsed = time.monotonic() - t0
    _report("criterion 4: empty singular set, sigma_min = s and ker D_s = 0",
            report.all_converged and sigma_ok and kernel_ok and cross_ok
            and elapsed <= 180.0,
            f"sigma_min = {[round(r.sigma_min, 6) for r in report.rows]}, "
            f"dense N=16 check {dense16:.8f} vs iterative {iterative16:.8f}, "
            f"{elapsed:.1f}s")


def test_criterion_5_concentration_sweep():
    """sin_zeros preset at N = 64, delta = 0.5: outside-mass of the lowest
    eigenvector strictly decreasing in s, with s * mass bounded by its
    value at s = 8; within 10 minutes."""
    t0 = time.monotonic()
    config = load_config(preset_path("sin_zeros.cfg"))
    assert config.N == 64 and config.delta == 0.5
    assert config.s_values == (8.0, 16.0, 32.0, 64.0)
    report = run_sweep(config)
    masses = [r.outside_mass for r in report.rows]
    decreasing = all(b < a for a, b in zip(masses, masses[1:]))
    bound = 8.0 * masses[0]
    bounded = all(r.s * r.outside_mass <= bound * (1 + 1e-9) for r in report.rows)
    elapsed = time.monotonic() - t0
    _report("criterion 5: concentration near the singular set",
            report.all_converged and decreasing and bounded and elapsed <= 600.0,
            f"masses = {[f'{m:.3e}' for m in masses]}, "
            f"s*mass = {[f'{r.s * r.outside_mass:.3e}' for r in report.rows]}, "
            f"fit slope = {report.fit['slope']:.2f}, {elapsed:.1f}s")


def test_criterion_6_derived_golden_values():
    """n = 1 closed forms, re-derived from the defining equations:
    star(thb1) = -i th1, tau(th1) = -thb1, A_phi u = -conj(w u) thb1, and
    the r = 1 symbol-level cancellation."""
    ctx = FiberContext(1)
    th1 = monomial(ctx, (1,), ())
    thb1 = monomial(ctx, (), (1,))
    i = ExactComplex(0, 1)
    golden_star = bar_star(thb1) == th1.scale(-i)
    golden_tau = tau(th1) == thb1.scale(-1)

    rng = random.Random(404)
    golden_a = True
    cancel = True
    for _ in range(25):
        w = random_scalar(ctx, rng)
        u = random_scalar(ctx, rng)
        phi = PhiMap(ctx, 1, ((w,),), declared_class=SYMMETRIC)
        z = Spinor(ctx, [scalar_form(ctx, u)], chirality=EVEN)
        expect = monomial(ctx, (), (1,), -(w * u).conjugate())
        golden_a &= (apply_A(phi, z).parts[0] - expect).is_zero()

        g = random_nonzero_covector(ctx, rng)
        sig_d = symbol(g, 1, "D")
        sig_ds = symbol(g, 1, "D_star")
        image = sig_ds(apply_A(phi, z)) + apply_A_adjoint(phi, sig_d(z))
        cancel &= image.is_zero()
    _report("criterion 6: derived golden closed forms (n = 1)",
            golden_star and golden_tau and golden_a and cancel,
            f"star {golden_star}, tau {golden_tau}, A component {golden_a}, "
            f"cancellation {cancel}")

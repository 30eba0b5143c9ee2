"""Randomized and exhaustive identity suites over the exact fiber calculus.

Every suite evaluates a proven operator identity on random exact inputs and
demands a literally zero defect; a failure carries a serialized
counterexample (exact rational text), so any regression is reproducible
from the report alone.  Records are keyed (identity, n, p): p is the
degree-like loop parameter of the identity family (the antiholomorphic
degree for the star-shift and Clifford families, the total degree for the
tau adjoint family, the twisting rank for symbol composition).
"""

from __future__ import annotations

import functools
import math
import random
import zlib
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

from .clifford import EVEN, clifford, spinor_basis, symbol
from .errors import UsageError
from .fiber import (
    Covector,
    FiberContext,
    Form,
    _monomial,
    _thb_parity_part,
    basis_forms,
    contract,
    inner,
    random_covector,
    random_form,
    random_nonzero_covector,
    random_rational,
    random_unit_scalar,
    wedge,
    zero_form,
)
from .hodge import (
    bar_star,
    epsilon_shift_identity,
    tau,
    tau_adjoint_defect,
    tau_graded,
    volume_form,
)
from .perturbation import (
    concentrating_defect,
    defect_vanishes,
    matched_class,
    opposite_class,
    random_nonzero_phi,
    random_phi,
    singular_verdict,
)
from .scalars import EC_ZERO, ExactComplex


@dataclass
class IdentityRecord:
    identity: str
    n: int
    p: int
    trials: int
    failures: int
    max_defect: float
    counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass
class VerifyReport:
    """The records of a verify run; each record is one verdict."""
    records: list

    def to_dict(self) -> dict:
        return {"entries": [asdict(r) for r in self.records]}

    def verdicts(self) -> list[bool]:
        return [r.passed for r in self.records]

    def lines(self) -> list[str]:
        """One summary line per identity, then the first 10 counterexamples."""
        lines = []
        for name in sorted({r.identity for r in self.records}):
            rows = [r for r in self.records if r.identity == name]
            bad = sum(1 for r in rows if not r.passed)
            lines.append(f"[{'ok ' if bad == 0 else 'FAIL'}] {name}: "
                         f"{len(rows)} (n,p) entries, "
                         f"{sum(r.trials for r in rows)} checks, "
                         f"{bad} failing entries")
        failures = [r for r in self.records if not r.passed]
        lines += [f"    counterexample {r.identity} n={r.n} p={r.p}: "
                  f"{r.counterexample}" for r in failures[:10]]
        return lines


def stable_seed(seed: int, *key) -> int:
    """RNG seed of one suite cell, the same in every process: built from the
    key's repr, where the builtin hash() of a str is salted per process."""
    return (zlib.crc32(repr(key).encode()) ^ seed) & 0x7FFFFFFF


def _require(ok: bool, message: str):
    if not ok:
        raise UsageError(message)


def _defect_size(defect) -> float:
    """The norm of a nonzero exact defect (a Form or an ExactComplex) as a
    float.  The float only ranks failures for max_defect; it can round to
    0.0."""
    if isinstance(defect, Form):
        return math.sqrt(sum(abs(c.to_complex()) ** 2 for _key, c in defect.items()))
    return abs(defect.to_complex())


def _tally(cases) -> tuple[int, int, float, str | None]:
    """(count, failures, worst, example) over (lhs, rhs, describe) triples,
    the two exact sides of an identity (two Forms or two ExactComplex
    values) and its inputs' text: the pass/fail rule of every identity
    check.  A case passes when lhs == rhs, which is exact, since both sides
    hold canonical scalars and no zero term.  Only a failure builds
    lhs - rhs, whose norm ranks it, and the first of the largest failures
    is the example, whose text describe() builds only then."""
    count = failures = 0
    worst, example = 0.0, None
    for lhs, rhs, describe in cases:
        count += 1
        if lhs == rhs:
            continue
        failures += 1
        size = _defect_size(lhs - rhs)
        if example is None or size > worst:
            worst, example = size, describe()
    return count, failures, worst, example


def _run(identity, n, p, trials, seed, check) -> IdentityRecord:
    """The record of trials draws of check(rng), each an (lhs, rhs,
    describe) triple."""
    rng = random.Random(stable_seed(seed, identity, n, p))
    return IdentityRecord(identity, n, p, *_tally(check(rng) for _ in range(trials)))


def _eta(ctx, rng):
    return _monomial(ctx, (1 << ctx.n) - 1, 0, random_unit_scalar(ctx, rng)._t)


def _describe(**kwargs) -> str:
    """The text of each input; a covector is printed as its (0,1) part."""
    def text(val):
        if isinstance(val, Covector):
            val = val.part01()
        return val.text() if hasattr(val, "text") else val
    return "; ".join(f"{key}={text(val)}" for key, val in kwargs.items())


# -- individual identity families -------------------------------------------
#
# Each family check takes (ctx, p, rng) and returns (lhs, rhs, describe):
# two Forms or two ExactComplex values that are equal exactly when the
# identity holds on the drawn inputs, and describe() serializes those inputs
# (a partial of _describe that holds the inputs themselves, covectors
# included, so passing trials build no text and no (0,1) part).

def _wedge_anticommute(ctx, p, rng):
    qx = rng.randint(0, ctx.n)
    py, qy = rng.randint(0, ctx.n), rng.randint(0, ctx.n)
    x = random_form(ctx, p, qx, rng)
    y = random_form(ctx, py, qy, rng)
    sign = -1 if ((p + qx) * (py + qy)) % 2 else 1
    return (wedge(x, y), wedge(y, x).scale(sign),
            functools.partial(_describe, x=x, y=y))


def _wedge_associative(ctx, p, rng):
    x = random_form(ctx, rng.randint(0, 1), p, rng)
    y = random_form(ctx, 0, rng.randint(0, ctx.n), rng)
    z = random_form(ctx, rng.randint(0, 1), rng.randint(0, ctx.n), rng)
    return (wedge(wedge(x, y), z), wedge(x, wedge(y, z)),
            functools.partial(_describe, x=x, y=y, z=z))


def _adjunction(ctx, p, rng):
    a = random_form(ctx, 0, p, rng)
    b = random_form(ctx, 0, p + 1, rng) if p < ctx.n else zero_form(ctx)
    g = random_covector(ctx, rng)
    return (inner(wedge(g.part01(), a), b), inner(a, contract(g, b)),
            functools.partial(_describe, alpha=a, beta=b, gamma=g))


def _contract_antiderivation(ctx, p, rng):
    px = rng.randint(0, ctx.n)
    x = random_form(ctx, px, p, rng)
    y = random_form(ctx, rng.randint(0, ctx.n), rng.randint(0, ctx.n), rng)
    g = random_covector(ctx, rng)
    sign = -1 if (px + p) % 2 else 1
    return (contract(g, wedge(x, y)),
            wedge(contract(g, x), y) + wedge(x, contract(g, y)).scale(sign),
            functools.partial(_describe, x=x, y=y, gamma=g))


def _contract_twice(ctx, p, rng):
    x = random_form(ctx, rng.randint(0, ctx.n), p, rng)
    g = random_covector(ctx, rng)
    return (contract(g, contract(g, x)), zero_form(ctx),
            functools.partial(_describe, x=x, gamma=g))


def _star_defining_exhaustive(ctx, p) -> tuple[int, int, float, str | None]:
    """alpha ^ star(beta) = <alpha, beta> dv over all same-bidegree basis
    pairs; returns _tally's (pairs, failures, worst, example)."""
    dv = volume_form(ctx)

    def cases():
        for q in range(ctx.n + 1):
            basis = basis_forms(ctx, p, q)
            stars = [bar_star(b) for b in basis]
            for a in basis:
                for b, sb in zip(basis, stars):
                    yield (wedge(a, sb), dv.scale(inner(a, b)),
                           functools.partial(_describe, alpha=a, beta=b))
    return _tally(cases())


def _star_square(ctx, p, rng):
    q = rng.randint(0, ctx.n)
    x = random_form(ctx, p, q, rng)
    sign = -1 if (p + q) % 2 else 1
    return bar_star(bar_star(x)), x.scale(sign), functools.partial(_describe, x=x)


def _tau_square(ctx, p, rng):
    q = rng.randint(0, ctx.n)
    x = random_form(ctx, p, q, rng)
    sign = -1 if ctx.n % 2 else 1
    return tau(tau(x)), x.scale(sign), functools.partial(_describe, x=x)


def _tau_isometry(ctx, p, rng):
    q = rng.randint(0, ctx.n)
    x = random_form(ctx, p, q, rng)
    tx = tau(x)
    return inner(tx, tx), inner(x, x), functools.partial(_describe, x=x)


def _star_wedge_shift(ctx, p, rng):
    # star(gamma01 ^ beta) against eta ^ contract(gamma10, star(eta ^ beta))
    beta = random_form(ctx, 0, p, rng)
    g = random_covector(ctx, rng)
    eta = _eta(ctx, rng)
    n = ctx.n
    lhs = bar_star(wedge(g.part01(), beta))
    rhs = wedge(eta, contract(g, bar_star(wedge(eta, beta))))
    sign = -1 if (n * (p + 1) + p) % 2 else 1
    return (lhs, rhs.scale(sign),
            functools.partial(_describe, beta=beta, gamma=g, eta=eta))


def _star_contract_shift(ctx, p, rng):
    # star(contract(gamma10, beta)) against eta ^ gamma01 ^ star(eta ^ beta)
    beta = random_form(ctx, 0, p, rng)
    g = random_covector(ctx, rng)
    eta = _eta(ctx, rng)
    n = ctx.n
    lhs = bar_star(contract(g, beta))
    rhs = wedge(eta, wedge(g.part01(), bar_star(wedge(eta, beta))))
    sign = -1 if ((n + 1) * (p - 1)) % 2 else 1
    return (lhs, rhs.scale(sign),
            functools.partial(_describe, beta=beta, gamma=g, eta=eta))


def _star_clifford_commutation(ctx, p, rng):
    # tau(c(gamma) beta) against eta ^ c(gamma) tau(eta ^ beta),
    # sign (-1)^(n(n+1)/2 + 1)
    beta = random_form(ctx, 0, p, rng)
    g = random_covector(ctx, rng)
    eta = _eta(ctx, rng)
    n = ctx.n
    lhs = tau_graded(clifford(g, beta))
    rhs = wedge(eta, clifford(g, tau(wedge(eta, beta))))
    sign = -1 if (n * (n + 1) // 2 + 1) % 2 else 1
    return (lhs, rhs.scale(sign),
            functools.partial(_describe, beta=beta, gamma=g, eta=eta))


def _tau_real_adjoint(ctx, k, rng):
    n = ctx.n
    p1 = rng.randint(max(0, k - n), min(n, k))
    x = random_form(ctx, p1, k - p1, rng)
    k2 = 2 * n - k
    p2 = rng.randint(max(0, k2 - n), min(n, k2))
    y = random_form(ctx, p2, k2 - p2, rng)
    return tau_adjoint_defect(x, y), ctx.zero, functools.partial(_describe, x=x, y=y)


def _clifford_square(ctx, p, rng):
    x = random_form(ctx, 0, p, rng)
    g = random_covector(ctx, rng)
    return (clifford(g, clifford(g, x)), x.scale(-g.norm_sq()),
            functools.partial(_describe, x=x, gamma=g))


def _clifford_skew(ctx, p, rng):
    a = random_form(ctx, 0, p, rng)
    b = zero_form(ctx)
    if p + 1 <= ctx.n:
        b = b + random_form(ctx, 0, p + 1, rng)
    if p - 1 >= 0:
        b = b + random_form(ctx, 0, p - 1, rng)
    g = random_covector(ctx, rng)
    return (inner(clifford(g, a), b), -inner(a, clifford(g, b)),
            functools.partial(_describe, alpha=a, beta=b, gamma=g))


def _clifford_parity(ctx, p, rng):
    # the part of c(gamma) x in the antiholomorphic parity of x
    x = random_form(ctx, 0, p, rng)
    g = random_covector(ctx, rng)
    wrong = _thb_parity_part(clifford(g, x), p % 2)
    return wrong, zero_form(ctx), functools.partial(_describe, x=x, gamma=g)


def _clifford_real_linear(ctx, p, rng):
    # additivity, and when it holds, homogeneity under a real scalar
    x = random_form(ctx, 0, p, rng)
    g1 = random_covector(ctx, rng)
    g2 = random_covector(ctx, rng)
    t = random_rational(rng)
    c1 = clifford(g1, x)
    sides = clifford(g1 + g2, x), c1 + clifford(g2, x)
    if sides[0] == sides[1]:
        sides = clifford(g1.scale_real(t), x), c1.scale(ctx.rational(t))
    return (*sides, functools.partial(_describe, x=x, g1=g1, g2=g2))


def _symbol_clifford_relation(ctx, r, rng):
    # sum over the basis of S+ (x) E of the squared norms of
    # sigma_D*(gamma) sigma_D(gamma) z + |gamma|^2 z; each term is a norm,
    # so the sum is zero exactly when every image is
    g = random_covector(ctx, rng)
    comp = symbol(g, r, "D_star").compose(symbol(g, r, "D"))
    norm_sq = g.norm_sq()
    total = ctx.zero
    for z in spinor_basis(ctx, r, EVEN):
        total = total + (comp(z) + z.scale(norm_sq)).norm_sq()
    return total, ctx.zero, functools.partial(_describe, gamma=g, r=r)


class Family(NamedTuple):
    """One identity family: its check, the values of its loop parameter p
    at dimension n, and its trial count given the suite's."""
    name: str
    check: Callable
    params: Callable[[int], range]
    trials: Callable[[int], int] = lambda trials: trials


def _degrees(n):
    return range(n + 1)


FAMILIES = (
    Family("wedge_anticommute", _wedge_anticommute, _degrees),
    Family("wedge_associative", _wedge_associative, _degrees),
    Family("contract_antiderivation", _contract_antiderivation, _degrees),
    Family("contract_twice_zero", _contract_twice, _degrees),
    Family("star_square", _star_square, _degrees),
    Family("tau_square", _tau_square, _degrees),
    Family("tau_isometry", _tau_isometry, _degrees),
    Family("star_wedge_shift", _star_wedge_shift, _degrees),
    Family("star_contract_shift", _star_contract_shift, _degrees),
    Family("star_clifford_commutation", _star_clifford_commutation, _degrees),
    Family("clifford_square", _clifford_square, _degrees),
    Family("clifford_skew_adjoint", _clifford_skew, _degrees),
    Family("clifford_parity_flip", _clifford_parity, _degrees),
    Family("clifford_real_linear", _clifford_real_linear, _degrees),
    Family("adjunction", _adjunction, _degrees),
    # total degree k of the first argument
    Family("tau_real_adjoint", _tau_real_adjoint, lambda n: range(2 * n + 1)),
    # twisting rank r; each trial covers a whole spinor basis
    Family("symbol_clifford_relation", _symbol_clifford_relation,
           lambda n: range(1, 5), lambda trials: max(1, trials // 10)),
)


def verify_suite(n_max: int, trials: int, seed: int) -> list[IdentityRecord]:
    """All exterior / Hodge / Clifford identity suites up to n_max."""
    _require(1 <= n_max <= 8, f"n_max must be in 1..8, got {n_max}")
    _require(trials >= 1, f"trials must be >= 1, got {trials}")
    records = []
    for n in range(1, n_max + 1):
        ctx = FiberContext(n)
        for family in FAMILIES:
            for p in family.params(n):
                records.append(_run(family.name, n, p, family.trials(trials), seed,
                                    functools.partial(family.check, ctx, p)))
        # exhaustive basis check of the defining property (auto-limited: all
        # basis pairs through n = 5, the n <= n_max loop otherwise)
        if n <= 5:
            for p in range(n + 1):
                records.append(IdentityRecord("star_defining", n, p,
                                              *_star_defining_exhaustive(ctx, p)))
    for n in range(1, 9):
        for p in range(n + 1):
            defect = ExactComplex(0 if epsilon_shift_identity(n, p) else 1)
            records.append(IdentityRecord("epsilon_shift", n, p, *_tally(
                [(defect, EC_ZERO, lambda: f"n={n}, p={p}")])))
    return records


# -- concentrating-condition suite -------------------------------------------

# The pass rule of each kind of condition row, and the line it prints.
_ROW_PASSES = {
    "correct": lambda row: row["failures"] == 0,
    "wrong": lambda row: row["nonzero_rate"] >= 0.95,
    "odd_rank": lambda row: row["all_singular"],
}
_ROW_LINES = {
    "correct": lambda row: (f"n={row['n']} r={row['r']} {row['phi_class']}: "
                            f"max defect {row['max_defect']} over {row['trials']} trials"),
    "wrong": lambda row: (f"n={row['n']} wrong class ({row['phi_class']}): "
                          f"nonzero-defect rate {row['nonzero_rate']:.3f}"),
    "odd_rank": lambda row: (f"n={row['n']} r={row['r']} antisymmetric: "
                             + (f"det = 0 in {row['trials']}/{row['trials']} trials"
                                if row["all_singular"] else "nonsingular draw found")),
}


@dataclass
class ConditionReport:
    correct: list
    wrong: list
    odd_rank: list

    def _rows(self) -> list:
        """(kind, row) for every row in report order."""
        return [(kind, row) for kind in _ROW_PASSES for row in getattr(self, kind)]

    def verdicts(self) -> list[bool]:
        """One bool per row in report order; the one place that decides
        whether a row passes."""
        return [_ROW_PASSES[kind](row) for kind, row in self._rows()]

    def lines(self) -> list[str]:
        return [f"[{'ok ' if ok else 'FAIL'}] {_ROW_LINES[kind](row)}"
                for (kind, row), ok in zip(self._rows(), self.verdicts())]

    def to_dict(self) -> dict:
        return {"correct_class": self.correct, "wrong_class": self.wrong,
                "odd_rank_det": self.odd_rank, "passed": all(self.verdicts())}


# the largest twisting rank condition_suite takes:
# condition_suite([1, 3], [64], 5, 1, 5) runs in about a quarter second
MAX_RANK = 64
# the largest complex dimension condition_suite takes: n = 9 and 11 are the
# second Bott period of the odd n (real dimension 18 and 22), and a matched
# draw costs about 0.1 s at n = 11
MAX_CONDITION_N = 11


def condition_suite(n_list, r_list, trials: int, seed: int,
                    wrong_trials: int = 200) -> ConditionReport:
    """Zero-defect matrix for matched classes, nonzero-rate statistics for
    the opposite class, and odd-rank antisymmetric determinant checks."""
    _require(bool(n_list) and bool(r_list), "need at least one n and one r")
    for n in n_list:
        _require(n % 2 == 1 and 1 <= n <= MAX_CONDITION_N,
                 f"n = {n}: the perturbation exchanges chirality only in odd "
                 "complex dimension (real dimension 2 or 6 mod 8), and the "
                 f"condition suite runs for odd 1 <= n <= {MAX_CONDITION_N}")
    # each trial builds r x r exact matrices, so a large r runs for hours
    _require(all(1 <= r <= MAX_RANK for r in r_list),
             f"every r must be in 1..{MAX_RANK}, got {list(r_list)}")
    # rows are keyed by (n, r) and seeded from it, so a repeat would print
    # and count the same rows twice
    for name, values in (("n", n_list), ("r", r_list)):
        _require(len(set(values)) == len(values),
                 f"every {name} must be listed once, got {list(values)}")
    _require(trials >= 1, f"trials must be >= 1, got {trials}")
    _require(wrong_trials >= 1, f"wrong_trials must be >= 1, got {wrong_trials}")
    correct, wrong, odd_rank = [], [], []
    for n in n_list:
        ctx = FiberContext(n)
        cls = matched_class(n)
        for r in r_list:
            rng = random.Random(stable_seed(seed, "correct", n, r))
            worst = 0.0
            failures = 0
            for _ in range(trials):
                phi = random_phi(ctx, r, cls, rng)
                g = random_covector(ctx, rng)
                d = concentrating_defect(phi, g)
                if d != 0.0:
                    failures += 1
                    worst = max(worst, d)
            correct.append({"n": n, "r": r, "phi_class": cls, "trials": trials,
                            "failures": failures, "max_defect": worst})
        # opposite class: rate of nonzero defect over nondegenerate draws
        # (zero phi or gamma resampled; r = 1 skipped for antisymmetric,
        # which is identically zero)
        ocls = opposite_class(n)
        usable_r = [r for r in r_list if not (ocls == "antisymmetric" and r == 1)]
        if usable_r:
            rng = random.Random(stable_seed(seed, "wrong", n))
            nonzero = 0
            for t in range(wrong_trials):
                r = usable_r[t % len(usable_r)]
                phi = random_nonzero_phi(ctx, r, ocls, rng)
                g = random_nonzero_covector(ctx, rng)
                if not defect_vanishes(phi, g):
                    nonzero += 1
            wrong.append({"n": n, "phi_class": ocls, "r_values": usable_r,
                          "trials": wrong_trials,
                          "nonzero_rate": nonzero / wrong_trials})
        for r in [r for r in r_list if r % 2 == 1]:
            rng = random.Random(stable_seed(seed, "oddrank", n, r))
            singular = all(
                singular_verdict(random_phi(ctx, r, "antisymmetric", rng)).is_singular
                for _ in range(trials))
            odd_rank.append({"n": n, "r": r, "trials": trials,
                             "all_singular": singular})
    return ConditionReport(correct, wrong, odd_rank)

"""Deformation sweep: eigenmodes, localization mass, and report assembly.

For each deformation strength s the sweep solves for the low eigenpairs
of D_s^T D_s on a Fourier band (``kernels``) of its own, with D_s one
sparse matrix built from the Fourier modes of w (``operators``).  It
measures the lowest eigenspace, not one vector of it: the mean density
|u|^2 over the lowest cluster does not depend on the basis the solver
returns inside a degenerate cluster (sin_zeros has an exact
2-dimensional kernel).  ``outside_mass`` integrates that density over
the delta-disks around the zeros exactly, as a finite sum in mode space
over the cluster's (k, K, K) band stack, so a row's mass reads no grid;
``lowest_density`` reads the same cluster out on the display grid of
side ``config.N`` for the heatmaps.  The sum holds for disks that are
embedded (delta < pi, ``SimConfig``) and disjoint: ``run_sweep`` refuses
two zeros at most 2 delta apart before any solve.  A row whose mass lies
below the rounding floor of 1 - (the mass inside the disks) gets a note,
and no verdict changes.  The sweep also records the smallest singular
value sigma_min = sqrt(lambda_min) and the cluster's mass on the band's
outer ring, ``band_tail``, which a mode the band resolves keeps near
zero.  Concentration shows up as outside-mass decreasing in s with
s * mass bounded; for presets with empty singular set the interesting
column is sigma_min instead (and outside-mass is 1 by definition).  A w
with zeros needs at least two s values: its concentration checks compare
rows, so ``run_sweep`` refuses a single s before any solve.

Each s is solved on the band M(s) that resolves it, at most the cap
M = N // 3 (``SimConfig.band_limit``).  Near a nondegenerate zero the low
modes are Gaussians of width (g s)^-1/2, where g bounds |dw| and |dbar w|,
so their coefficient mass beyond M(s) falls like exp(-M(s)^2 / (g s)).
The a-priori band ``a_priori_band`` = ceil(sqrt(32 g s)) puts it near
1e-12 for sin_zeros.  A row's band is at least that, at least the
previous row's and at least the smallest on which LOBPCG runs
(``_lobpcg_fits``), and at most the cap.  Since s increases, each band is
nested in the next (``operators``), and each solve starts from the
previous row's Ritz block, prolonged onto its band; the first starts from
the lowest modes.  When the cluster's ``band_tail`` exceeds eig_tol below
the cap, the row doubles its band, up to the cap, and solves again from
its own prolonged block.  A row at the cap whose band_tail still exceeds
eig_tol gets a note, and no verdict changes.  For constant w, g = 0 and
the lowest modes are exact on any band that holds them, so every row runs
on the smallest band.  On every band the solver's own residual check
decides convergence.

The ``SpectralReport`` is the one place that decides pass or fail: each
row gets one verdict, failed when a failed check names it (``verdicts``).
``to_dict`` is the report body, with the config echoed and the failed
checks under ``assertions``; ``lines`` is one line per row, marked by its
verdict, then one per failed check; the CSV is a derived view.
"""

from __future__ import annotations

import csv
import functools
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import kernels
from .config import ConfigError, SimConfig, _lobpcg_fits, torus_distance_sq, zero_locations
from .eigensolve import EigenResult, normal_eigenpairs
from .operators import TorusOperator, flat_to_complex, prolong


def _bessel_j1(x: np.ndarray) -> np.ndarray:
    """J_1 at the points x >= 0, by the P-point trapezoid rule on
    J_1(x) = (1/2pi) int_0^2pi cos(t - x sin t) dt, P = 2 ceil(max x) + 48.
    The rule is the mean over P equispaced t, and its error is
    sum_{j != 0} J_{1 + jP}(x), whose largest term J_{P-1}(x) lies far
    below rounding for P - 1 > 2x + 46.  The integrand is even about
    t = pi, so the mean takes t in [0, pi] only: weight 1 at both ends and
    2 between.  Points are taken in chunks of about 2^20 integrand
    values."""
    P = 2 * math.ceil(float(np.max(x, initial=0.0))) + 48
    t = np.arange(P // 2 + 1) * (2.0 * math.pi / P)
    sin_t = np.sin(t)
    weights = np.full(t.size, 2.0 / P)
    weights[[0, -1]] = 1.0 / P
    out = np.empty(x.shape)
    step = max(1, (1 << 20) // t.size)
    for i in range(0, x.size, step):
        chunk = x[i:i + step]
        out[i:i + step] = np.cos(t - np.multiply.outer(chunk, sin_t)) @ weights
    return out


@functools.lru_cache(maxsize=8)
def disk_transform(L: int, delta: float) -> np.ndarray:
    """Read-only (L, L) array of the Fourier transform of the delta-disk
    on the modes k of an (L, L) grid (``kernels.band_modes``):
    int_{|y| < delta} e^{i k.y} dy = 2pi delta J_1(delta |k|) / |k|, and
    pi delta^2 at k = 0.  J_1 is evaluated once per distinct |k|^2."""
    m = kernels.band_modes(L)
    k2, index = np.unique((m[:, None] ** 2 + m[None, :] ** 2).ravel(),
                          return_inverse=True)
    r = np.sqrt(k2[1:])  # k2[0] = 0, the mode k = 0
    d = np.concatenate(([math.pi * delta * delta],
                        2.0 * math.pi * delta * _bessel_j1(delta * r) / r))
    d = d[index].reshape(L, L)
    d.setflags(write=False)
    return d


def outside_mass(bands: np.ndarray, config: SimConfig, zeros) -> tuple:
    """(mass, floor): the fraction of the mean density of the (size, K, K)
    band stack ``bands`` outside the delta-disks around ``zeros``, and the
    rounding floor of that fraction; (1.0, 0.0) when there is no zero.

    The mean density rho of the fields u_j of the stack is a trigonometric
    polynomial of degree 2M, rho(x) = (1/4pi^2) sum_k rhohat_k e^{i k.x}
    with rhohat_k the mean over j of sum_m c_jm conj(c_j(m-k)), so its
    mass in the disk around z is the finite sum (1/4pi^2) sum_k rhohat_k
    e^{i k.z} ``disk_transform``(k).  rhohat comes from one inverse and one forward
    FFT on the (L, L) grid, L = 2K - 1, which holds every mode |k| <= 2M
    without aliasing.  The sum is exact for disks that are embedded and
    disjoint (``run_sweep`` refuses others); it reads neither the grid side
    N nor its spacing.  The mass is 1 - (inside) / (total), which cancels:
    floor = eps sum |terms| / total, the rounding of the inside sum, and a
    mass below it is not resolved from 0.

    Each field must have unit norm on average over the stack, to within
    1e-6 in the square root of the mean squared norm."""
    size, K = bands.shape[0], bands.shape[-1]
    total = float(np.sum(bands.real ** 2 + bands.imag ** 2)) / size
    nrm = math.sqrt(total)
    if abs(nrm - 1.0) > 1e-6:
        raise ValueError(f"field norm {nrm} is not 1 (tolerance 1e-6)")
    if not zeros:
        return 1.0, 0.0
    L = 2 * K - 1
    grid = np.fft.ifft2(kernels.embed(bands, L))
    rhohat = np.fft.fft2(np.sum(grid.real ** 2 + grid.imag ** 2, axis=0)) * (L * L / size)
    m = kernels.band_modes(L)
    phases = sum(np.outer(np.exp(1j * m * zx), np.exp(1j * m * zy)) for zx, zy in zeros)
    terms = rhohat * phases * disk_transform(L, config.delta)
    inside = float(np.sum(terms.real)) / (4.0 * math.pi ** 2)
    floor = float(np.sum(np.abs(terms))) / (4.0 * math.pi ** 2)
    return 1.0 - inside / total, np.finfo(float).eps * floor / total


def fit_loglog(s_values, masses):
    """Least-squares slope/intercept of log(mass) against log(s)."""
    s = np.asarray(s_values, float)
    m = np.asarray(masses, float)
    keep = m > 0
    if np.sum(keep) < 2:
        return None
    slope, intercept = np.polyfit(np.log(s[keep]), np.log(m[keep]), 1)
    return {"slope": float(slope), "intercept": float(intercept)}


@dataclass
class SweepRow:
    s: float
    eigenvalues: list
    outside_mass: float
    band_tail: float    # lowest cluster's mean mass on max(|mx|, |my|) = M
    band_limit: int     # M, the band the row was solved on
    cluster_dim: int    # eigenpairs in the lowest cluster (lowest_cluster)
    sigma_min: float
    sigma_floor: float  # sqrt(eig_tol * opnorm), opnorm of the row's band:
                        # sigma_min below it is not resolved from 0
    residual_max: float
    converged: bool
    iterations: int     # EigenResult.iterations summed over the row's
                        # solves, one per band it tried: LOBPCG history
                        # rows, 2 per run even when the start block has
                        # converged
    seconds: float


@dataclass
class SpectralReport:
    config: SimConfig
    zeros: list
    rows: list
    fit: dict | None
    seconds: float
    notes: list = field(default_factory=list)
    # lowest-cluster density per row, for the heatmaps; not serialized
    fields: list = field(default_factory=list, repr=False)

    @property
    def all_converged(self) -> bool:
        return all(r.converged for r in self.rows)

    def _checks(self) -> list:
        """The pass rule of a sweep: (problem, indices of the rows it names)
        for every failed check.

        Every s must converge.  With zeros, the outside mass must decrease
        strictly in s and s * mass must stay at most its value at the
        smallest s.  For the constant preset, sigma_min(D_s) = s |w| exactly
        on the discrete Fourier modes, so each sigma_min must be within 1%
        of it.
        """
        rows = self.rows
        failed = []
        bad = [i for i, r in enumerate(rows) if not r.converged]
        if bad:
            failed.append((f"solver did not converge at s = {[rows[i].s for i in bad]}",
                           bad))
        if self.zeros:
            bad = [i for i in range(1, len(rows))
                   if rows[i].outside_mass >= rows[i - 1].outside_mass]
            if bad:
                failed.append(("outside-mass not strictly decreasing in s", bad))
            bound = rows[0].s * rows[0].outside_mass
            bad = [i for i, r in enumerate(rows)
                   if r.s * r.outside_mass > bound * (1 + 1e-9)]
            if bad:
                failed.append(("s * outside-mass exceeds its value at the smallest s",
                               bad))
        elif self.config.preset_kind == "constant":
            scale = abs(self.config.constant_value)
            for i, r in enumerate(rows):
                if abs(r.sigma_min - scale * r.s) > 0.01 * scale * r.s:
                    failed.append((f"sigma_min {r.sigma_min:.6f} deviates from "
                                   f"{scale:g} * s = {scale * r.s:g} by >1%", [i]))
        return failed

    def verdicts(self) -> list[bool]:
        """One bool per row: a row fails when a failed check names it."""
        failed = {i for _problem, rows in self._checks() for i in rows}
        return [i not in failed for i in range(len(self.rows))]

    def lines(self) -> list[str]:
        """One line per row, marked by its verdict, then one per note and
        one per problem."""
        lines = [f"[{'ok ' if ok else 'FAIL'}] s={r.s:g}: "
                 f"sigma_min={r.sigma_min:.6g} outside_mass={r.outside_mass:.6g} "
                 f"({r.iterations} iterations on M = {r.band_limit}, "
                 f"{r.seconds:.2f}s)"
                 for r, ok in zip(self.rows, self.verdicts())]
        return (lines + [f"[note] {note}" for note in self.notes]
                + [f"[FAIL] {problem}" for problem, _rows in self._checks()])

    def to_dict(self) -> dict:
        problems = [problem for problem, _rows in self._checks()]
        return {
            "config": self.config.echo(),
            "discretization": {
                "scheme": "fourier-galerkin-band",
                # the cap on every row's band; each row has its own
                "band_limit": self.config.band_limit,
                "w_modes": [[mx, my, c.real, c.imag]
                            for mx, my, c in self.config.w_modes()],
                "box": "2pi x 2pi periodic",
                "spacing": self.config.spacing,
            },
            "zeros": [[zx, zy] for (zx, zy) in self.zeros],
            "results": [asdict(r) for r in self.rows],
            "fit": self.fit,
            "seconds": self.seconds,
            "notes": self.notes,
            "assertions": {"passed": not problems, "problems": problems},
        }

    def write_csv(self, path):
        k = max(len(r.eigenvalues) for r in self.rows)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["s"] + [f"eig_{i + 1}" for i in range(k)]
                            + ["outside_mass", "sigma_min"])
            for r in self.rows:
                writer.writerow([r.s] + [f"{v:.12g}" for v in r.eigenvalues]
                                + [f"{r.outside_mass:.12g}", f"{r.sigma_min:.12g}"])


def lowest_cluster(op: TorusOperator, result: EigenResult) -> int:
    """How many eigenpairs form the lowest cluster: the eigenvalues that the
    solve does not resolve from the smallest, within eig_tol * opnorm of it.
    Means over the cluster are traces over its spectral projector, so they
    are the same for every orthonormal basis of the cluster."""
    resolution = op.config.eig_tol * result.opnorm_estimate
    return int(np.sum(result.values <= result.values[0] + resolution))


def lowest_density(op: TorusOperator, result: EigenResult, size: int) -> np.ndarray:
    """Mean of |u_j|^2 over the fields u_j of the lowest cluster, its first
    ``size`` vectors (``lowest_cluster``), read out as one stack: a real
    (N, N) array whose h^2-weighted sum is 1."""
    u = kernels.to_grid(flat_to_complex(result.vectors[:, :size], op.K), op.config.N)
    return np.sum(u.real ** 2 + u.imag ** 2, axis=0) / size


def band_tail(op: TorusOperator, result: EigenResult, size: int) -> float:
    """Mean over the lowest cluster, its first ``size`` vectors
    (``lowest_cluster``), of the squared coefficient mass on the band's
    outer ring max(|mx|, |my|) = M.  A mode the band resolves decays toward
    the ring; mass there means the truncation to |m| <= M shapes it."""
    ring = op.per_real(lambda mx, my: np.maximum(np.abs(mx), np.abs(my)) == op.M)
    x = result.vectors[ring, :size]
    return float(np.sum(x * x)) / size


def a_priori_band(config: SimConfig, s: float) -> int:
    """M0(s) = ceil(sqrt(32 g s)) with g = sum_k |k| |w_k| / 2 over the modes
    of w, a bound on max|dw| and max|dbar w|: 1 for sin_zeros, 0 for a
    constant w.  A Gaussian of width (g s)^-1/2 keeps about exp(-32) of its
    coefficient mass beyond M0."""
    g = 0.5 * sum(math.hypot(mx, my) * abs(c) for mx, my, c in config.w_modes())
    return math.ceil(math.sqrt(32.0 * g * s))


def run_sweep(config: SimConfig) -> SpectralReport:
    """Assemble, solve, and measure for every s in the config."""
    t0 = time.monotonic()
    zeros = zero_locations(config)
    if config.preset_kind == "custom" and not zeros:
        raise ConfigError("custom preset's w has no bracketed zero on the grid; "
                          "the sweep would pass on convergence alone")
    if zeros and len(config.s_values) < 2:
        raise ConfigError("a w with zeros needs at least two s values: its "
                          "concentration checks compare rows, so one row "
                          "would pass on convergence alone")
    for i, a in enumerate(zeros):
        for b in zeros[i + 1:]:
            gap = math.sqrt(torus_distance_sq(*a, *b))
            if gap <= 2.0 * config.delta:
                raise ConfigError(
                    f"the delta-disks around the zeros ({a[0]:.4f}, {a[1]:.4f}) "
                    f"and ({b[0]:.4f}, {b[1]:.4f}) overlap: they lie {gap:.4f} "
                    f"apart, at most 2 delta = {2.0 * config.delta:g}; the "
                    f"outside mass integrates each disk once, so delta must "
                    f"be below half the distance between any two zeros")
    cap = config.band_limit
    # the smallest band on which LOBPCG runs; SimConfig checks the cap
    M = next(M for M in range(1, cap + 1) if _lobpcg_fits(config.eig_count, M))
    rows = []
    densities = []
    notes = []
    start = None
    for s in config.s_values:
        ts = time.monotonic()
        M = min(max(a_priori_band(config, s), M), cap)
        iterations = 0
        while True:
            op = TorusOperator(config, s, M)
            if start is not None:
                start = prolong(start, op.K)
            result = normal_eigenpairs(op, config, start=start)
            start = result.block
            iterations += result.iterations
            cluster = lowest_cluster(op, result)
            tail = band_tail(op, result, cluster)
            if tail <= config.eig_tol or M == cap:
                break
            M = min(2 * M, cap)
        if tail > config.eig_tol:
            notes.append(f"s = {s:g}: band_tail = {tail:.2g} > eig_tol = "
                         f"{config.eig_tol:g} on the widest band M = N // 3 = "
                         f"{cap}: the lowest modes reach its edge, so this row "
                         f"is not resolved; a larger N resolves it")
        density = lowest_density(op, result, cluster)
        mass, floor = outside_mass(flat_to_complex(result.vectors[:, :cluster], op.K),
                                   config, zeros)
        if mass < floor:
            notes.append(f"s = {s:g}: outside_mass = {mass:.2g} is below its "
                         f"rounding floor {floor:.2g}: 1 - (the mass inside "
                         f"the disks) does not resolve it from 0")
        rows.append(SweepRow(
            s=float(s),
            eigenvalues=[float(v) for v in result.values],
            outside_mass=mass,
            band_tail=tail,
            band_limit=M,
            cluster_dim=cluster,
            sigma_min=float(math.sqrt(max(result.values[0], 0.0))),
            sigma_floor=float(math.sqrt(config.eig_tol * result.opnorm_estimate)),
            residual_max=float(np.max(result.residuals)),
            converged=result.all_converged,
            iterations=iterations,
            seconds=time.monotonic() - ts,
        ))
        densities.append(density)
        # freed before the next s: only result.block, the next start, stays
        op = result = None
    fit = fit_loglog([r.s for r in rows], [r.outside_mass for r in rows]) \
        if zeros else None
    return SpectralReport(
        config=config,
        zeros=zeros,
        rows=rows,
        fit=fit,
        seconds=time.monotonic() - t0,
        notes=notes,
        fields=densities,
    )

"""Simulation configuration and the phi field on a grid.

Config files are plain ``key = value`` lines (``#`` comments).  The keys
are the fields of ``SimConfig``, in its order; the comment beside each
field says what it holds, and ``parse_config_text`` reads each key by its
field.

The torus is [0, 2pi)^2, and its display grid has side N and spacing
h = 2pi/N.  The sin_zeros preset is w = sin x + i sin y, whose zeros
(0,0), (pi,0), (0,pi), (pi,pi) are exact and nondegenerate.  Every
preset's w is its Fourier modes, ``SimConfig.w_modes``.  The heatmaps'
densities and the custom preset's zeros, bracketed by sign changes, live
on the (N, N) grid; the outside mass is an integral over the delta-disks
around the zeros in mode space (``sweep.outside_mass``), which reads no
grid.  So delta has one rule of its own, 0 < delta < pi (a disk of radius
pi wraps onto itself), one rule beside the zeros, that no two disks
overlap (``run_sweep``), and one rule of the custom preset, delta > h,
because its zeros are only as good as the grid that brackets them.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, fields
from importlib import resources

import numpy as np

from ..errors import UsageError

TWO_PI = 2.0 * math.pi

# Largest grid side: one 8-column LOBPCG block is already about 60 MB there.
MAX_N = 1024
# Smallest eig_tol: below it the residual test sits under float64 rounding.
MIN_EIG_TOL = 1e-15
# Bound on sqrt2 M + s_max w_bound, the bound on sigma_max(D_s).  LOBPCG
# takes norms of D_s^T D_s x, whose entries are the squares of D_s's, so
# they stay finite while this bound stays below the fourth root of the
# largest float.
MAX_SIGMA = sys.float_info.max ** 0.25
# Most distinct Fourier modes of a custom w.  D_s is a sparse matrix with
# at most 2 + 2 modes stored entries per real row, 12 B each (a float64 and
# an int32), and a band has 2 (2M+1)^2 real rows, so at N = 1024 (M = 341)
# 16 modes take at most 34 * 932978 * 12 B = 381 MB.
MAX_MODES = 16


class ConfigError(UsageError):
    """Bad simulation configuration or config file."""


def _lobpcg_fits(eig_count: int, M: int) -> bool:
    """LOBPCG's size rule on the band M: it runs with up to eig_count + 4
    columns, and scipy's lobpcg needs 5 per column in the problem size, the
    band's 2 (2M+1)^2 reals, for its iterative path."""
    return 5 * (eig_count + 4) <= 2 * (2 * M + 1) ** 2


def _number(cast, key: str, text: str):
    try:
        return cast(text.strip())
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(f"{key}: expected {kind}, got {text.strip()!r}") from None


def _read_s_values(key: str, text: str) -> tuple:
    return tuple(_number(float, key, tok) for tok in text.split(","))


def _read_fourier_coeffs(key: str, text: str) -> tuple:
    coeffs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        toks = [t.strip() for t in chunk.split(",")]
        if len(toks) != 4:
            raise ConfigError(f"{key} entries are mx,my,re,im")
        mx, my = (_number(int, key, t) for t in toks[:2])
        re, im = (_number(float, key, t) for t in toks[2:])
        coeffs.append((mx, my, complex(re, im)))
    return tuple(coeffs)


@dataclass(frozen=True)
class SimConfig:
    """One field per config key.  A key is read as its default's type
    unless its field's metadata names a reader ("read"), and echoed with
    tuples as lists unless it names a JSON shape ("echo")."""

    # grid points per axis; power of two, 16 <= N <= 1024.  Fields are
    # their Fourier coefficients with |mx|, |my| <= M, M chosen per s up to
    # N // 3
    N: int = 64
    # comma-separated deformation strengths, strictly increasing, no two
    # alike as printed with :g
    s_values: tuple = field(default=(8.0, 16.0, 32.0, 64.0),
                            metadata={"read": _read_s_values})
    # exactly sin_zeros, custom or constant(<complex>)
    phi_preset: str = "sin_zeros"
    # custom only: "mx,my,re,im; mx,my,re,im; ..." giving
    # w = sum c * exp(i(mx*x + my*y)), with max(|mx|, |my|) < N/2 and at
    # most MAX_MODES distinct (mx, my)
    fourier_coeffs: tuple = field(default=(), metadata={
        "read": _read_fourier_coeffs,
        "echo": lambda coeffs: [[mx, my, c.real, c.imag] for mx, my, c in coeffs]})
    # exclusion radius around the singular set (radians), 0 < delta < pi;
    # the custom preset also needs delta above the grid spacing, and a sweep
    # refuses two zeros at most 2 delta apart (disks that overlap)
    delta: float = 0.5
    # number of low eigenpairs to compute
    eig_count: int = 6
    # relative residual tolerance for the eigensolver, >= MIN_EIG_TOL
    eig_tol: float = 1e-9
    # RNG seed for the solver's start block
    seed: int = 1
    # eigensolver iteration cap
    max_iterations: int = 800

    def __post_init__(self):
        object.__setattr__(self, "s_values", tuple(float(s) for s in self.s_values))
        if self.N < 16:
            raise ConfigError(f"N must be >= 16, got {self.N}")
        if self.N > MAX_N:
            raise ConfigError(f"N must be <= {MAX_N}, got {self.N}")
        if self.N & (self.N - 1):
            raise ConfigError(f"N must be a power of two, got {self.N}")
        if not self.s_values:
            raise ConfigError("need at least one s value")
        if not all(math.isfinite(s) and s > 0 for s in self.s_values):
            raise ConfigError("s values must be positive and finite")
        if any(b <= a for a, b in zip(self.s_values, self.s_values[1:])):
            raise ConfigError("s values must be strictly increasing")
        # a row's printed line, notes and heatmap file are keyed by f"{s:g}"
        for a, b in zip(self.s_values, self.s_values[1:]):
            if f"{a:g}" == f"{b:g}":
                raise ConfigError(f"s values {a!r} and {b!r} both print as "
                                  f"s = {a:g}: their rows would share one heatmap")
        if not math.isfinite(self.delta):
            raise ConfigError(f"delta must be finite, got {self.delta}")
        # a disk of radius pi or more wraps onto itself on the torus
        if not 0.0 < self.delta < math.pi:
            raise ConfigError(f"delta = {self.delta} must be positive and below "
                              f"pi: the delta-disks must be embedded in the torus")
        if self.eig_count < 1:
            raise ConfigError("eig_count must be >= 1")
        if not _lobpcg_fits(self.eig_count, self.band_limit):
            raise ConfigError(
                f"eig_count = {self.eig_count} is too large for N = {self.N}: "
                f"need 5 * (eig_count + 4) <= 2 (2M+1)^2 = "
                f"{2 * (2 * self.band_limit + 1) ** 2}, M = N // 3")
        if not (math.isfinite(self.eig_tol) and self.eig_tol >= MIN_EIG_TOL):
            raise ConfigError(
                f"eig_tol must be finite and >= {MIN_EIG_TOL:g}, got "
                f"{self.eig_tol:g}: below that the residual test sits under "
                f"float64 rounding")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        kind = self.preset_kind
        if kind == "constant":
            value = self.constant_value
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ConfigError("constant preset needs a finite value")
            if value == 0:
                raise ConfigError("constant preset needs a nonzero value")
        elif self.phi_preset.strip() not in ("sin_zeros", "custom"):
            raise ConfigError(f"unknown phi preset {self.phi_preset!r}: expected "
                              f"sin_zeros, custom or constant(<complex>)")
        if self.fourier_coeffs and kind != "custom":
            raise ConfigError(f"fourier_coeffs is read only by the custom "
                              f"preset, not by {self.phi_preset!r}")
        if kind == "custom":
            if not self.fourier_coeffs:
                raise ConfigError("custom preset needs fourier_coeffs")
            # its zeros are bracketed on the grid (zero_locations)
            if self.delta <= self.spacing:
                raise ConfigError(
                    f"custom preset: delta = {self.delta} must exceed the grid "
                    f"spacing {self.spacing:.4f}, at which its zeros are "
                    f"bracketed")
            if not all(np.isfinite(c) for _mx, _my, c in self.fourier_coeffs):
                raise ConfigError("fourier_coeffs must be finite")
            # on the grid, exp(i(mx x + my y)) depends on (mx, my) mod N
            # only; a mode whose terms cancel to rounding counts as zero
            aliased = {}
            for mx, my, c in self.fourier_coeffs:
                total, size = aliased.get((mx % self.N, my % self.N), (0, 0.0))
                aliased[(mx % self.N, my % self.N)] = (total + c, size + abs(c))
            if all(abs(total) <= 1e-12 * size for total, size in aliased.values()):
                raise ConfigError("custom preset's w vanishes identically on "
                                  "the grid: its fourier_coeffs cancel")
            # the zeros and heatmaps sample w on the (N, N) grid, which
            # resolves modes below N/2 without aliasing
            width = max(max(abs(mx), abs(my)) for mx, my, _c in self.fourier_coeffs)
            if width >= self.N / 2:
                raise ConfigError(
                    f"custom preset's w has modes up to max(|mx|, |my|) = "
                    f"{width}; the grid needs max(|mx|, |my|) < N/2 = "
                    f"{self.N // 2}")
            modes = len(self.w_modes())
            if modes > MAX_MODES:
                nreal = 2 * (2 * (MAX_N // 3) + 1) ** 2
                raise ConfigError(
                    f"custom preset's w has {modes} distinct Fourier modes, "
                    f"more than {MAX_MODES}: D_s stores at most 2 + 2 modes "
                    f"entries per real row, 12 B each, up to "
                    f"{12 * (2 + 2 * MAX_MODES) * nreal / 1e6:.0f} MB for "
                    f"{MAX_MODES} modes at N = {MAX_N}")
        sigma = self.sigma_max_bound(self.band_limit, self.s_values[-1])
        if not sigma < MAX_SIGMA:
            raise ConfigError(
                f"sqrt2 M + s_max * max|w| = {sigma:.3g} must be below "
                f"{MAX_SIGMA:.3g}, the fourth root of the largest float: the "
                f"eigensolver squares the entries of D_s^T D_s")

    @property
    def spacing(self) -> float:
        return TWO_PI / self.N

    @property
    def band_limit(self) -> int:
        """The widest band M = N // 3: a field is its Fourier coefficients
        with |mx|, |my| <= M, M chosen per s up to this cap (``sweep``)."""
        return self.N // 3

    def w_modes(self) -> tuple:
        """w = sum c exp(i(mx x + my y)) as its distinct Fourier modes, a
        tuple of (mx, my, c); a custom (mx, my) listed twice is one mode
        with the summed coefficient."""
        kind = self.preset_kind
        if kind == "sin_zeros":  # sin x + i sin y
            return ((1, 0, 0 - 0.5j), (-1, 0, 0 + 0.5j), (0, 1, 0.5 + 0j), (0, -1, -0.5 + 0j))
        if kind == "constant":
            return ((0, 0, self.constant_value),)
        merged = {}
        for mx, my, c in self.fourier_coeffs:
            merged[(mx, my)] = merged.get((mx, my), 0) + c
        return tuple((mx, my, complex(c)) for (mx, my), c in merged.items())

    def sigma_max_bound(self, M: int, s: float) -> float:
        """sqrt2 M + s ``w_bound``, an upper bound for the largest singular
        value of D_s on the band M: max |i mx - my| + s max|w|, by the
        triangle inequality and ||A|| <= max|w|, A being a projection of
        conj(w u)."""
        return math.sqrt(2.0) * M + s * self.w_bound

    @property
    def w_bound(self) -> float:
        """An upper bound for max|w| over the torus: sqrt2 for sin_zeros,
        |c| for constant(c), the sum of |c| over the modes for custom."""
        if self.preset_kind == "sin_zeros":
            return math.sqrt(2.0)
        return float(sum(abs(c) for _mx, _my, c in self.w_modes()))

    @property
    def preset_kind(self) -> str:
        return self.phi_preset.split("(", 1)[0].strip()

    @property
    def constant_value(self) -> complex:
        if self.preset_kind != "constant":
            raise ConfigError("not a constant preset")
        text = self.phi_preset.strip()
        if not text.endswith(")") or text.count("(") != 1 or text.count(")") != 1:
            raise ConfigError(f"expected constant(<complex>), got {text!r}")
        inside = text[text.index("(") + 1:-1]
        try:
            return complex(inside.replace(" ", ""))
        except ValueError as exc:
            raise ConfigError(f"bad constant value {inside!r}") from exc

    def echo(self) -> dict:
        """The config as JSON, one entry per field in declaration order."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if "echo" in f.metadata:
                value = f.metadata["echo"](value)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


def parse_config_text(text: str) -> SimConfig:
    keys = {f.name: f for f in fields(SimConfig)}
    values = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in keys:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in lines:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line "
                              f"{lines[key]}")
        values[key] = val
        lines[key] = lineno
    kwargs = {}
    for key, f in keys.items():
        if key in values:
            read = f.metadata.get("read", functools.partial(_number, type(f.default)))
            kwargs[key] = read(key, values[key])
    return SimConfig(**kwargs)


def load_config(path) -> SimConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return parse_config_text(text)


def preset_path(name: str):
    """Path of a bundled preset config (``sin_zeros.cfg``, ``constant.cfg``)."""
    return resources.files("cldirac.torus") / "presets" / name


def phi_field(config: SimConfig, side: int | None = None) -> np.ndarray:
    """The perturbation coefficient w sampled on the (side, side) grid of
    the torus, side N by default, complex with axis 0 = x and axis 1 = y:
    the sum over ``config.w_modes()`` of c outer(e^{i mx x}, e^{i my y}),
    one matrix product of the two factor tables."""
    side = config.N if side is None else side
    x = np.arange(side) * (TWO_PI / side)
    mx, my, c = (np.array(col) for col in zip(*config.w_modes()))
    return (c * np.exp(1j * np.outer(x, mx))) @ np.exp(1j * np.outer(my, x))


def torus_distance_sq(x, y, zx, zy):
    """Squared distance on the torus [0, 2pi)^2 from (x, y) to (zx, zy)."""
    dx = np.abs(x - zx)
    dx = np.minimum(dx, TWO_PI - dx)
    dy = np.abs(y - zy)
    dy = np.minimum(dy, TWO_PI - dy)
    return dx * dx + dy * dy


def zero_locations(config: SimConfig):
    """Zeros of w as (x, y) pairs, each coordinate in [0, 2pi).

    Presets with exact zeros report them exactly; the custom preset brackets
    sign changes of Re w and Im w across grid plaquettes and reports the
    circular mean of each connected group of cell centres, adequate for
    delta well above the spacing.  A group with a cell farther than delta
    from its mean (a zero line, say) is a ConfigError."""
    kind = config.preset_kind
    if kind == "sin_zeros":
        pi = math.pi
        return [(0.0, 0.0), (pi, 0.0), (0.0, pi), (pi, pi)]
    if kind == "constant":
        return []
    w = phi_field(config)
    re, im = w.real, w.imag

    def _bracket(a):
        # the four corners of each plaquette, wrapping at the seam
        p = np.pad(a, ((0, 1), (0, 1)), mode="wrap")
        b, c, d = p[1:, :-1], p[:-1, 1:], p[1:, 1:]
        lo = np.minimum(np.minimum(a, b), np.minimum(c, d))
        hi = np.maximum(np.maximum(a, b), np.maximum(c, d))
        return (lo <= 0) & (hi >= 0)
    cells = _bracket(re) & _bracket(im)
    h = config.spacing
    n = config.N
    # group marked cells into periodic connected components and report the
    # circular mean of each component (plain averaging breaks at the seam)
    remaining = {(int(ix), int(iy)) for ix, iy in zip(*np.nonzero(cells))}
    zeros = []
    while remaining:
        stack = [remaining.pop()]
        component = []
        while stack:
            cx, cy = stack.pop()
            component.append((cx, cy))
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    nb = ((cx + dx) % n, (cy + dy) % n)
                    if nb in remaining:
                        remaining.discard(nb)
                        stack.append(nb)
        centres = (np.array(component) * h + 0.5 * h).T  # x row, y row
        zero = []
        for ang in centres:
            mean = math.atan2(np.mean(np.sin(ang)), np.mean(np.cos(ang))) % TWO_PI
            # a mean just below 0 rounds up to 2pi, which is 0 on the torus
            zero.append(0.0 if mean == TWO_PI else mean)
        if np.any(torus_distance_sq(*centres, *zero) > config.delta ** 2):
            raise ConfigError(
                f"the zeros of w are not isolated points: bracketed cells reach "
                f"farther than delta = {config.delta:g} from their mean "
                f"({zero[0]:.4f}, {zero[1]:.4f}), which delta-disks do not cover")
        zeros.append(tuple(zero))
    return sorted(zeros)

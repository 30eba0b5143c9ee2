"""The deformed operator on the flat torus, complex dimension 1.

With the unitary coframe th1 = dz/sqrt2 the twisted Dirac operator on the
trivially-connected trivial line bundle sends a function u to

    D u = (du/dx + i du/dy) u * thb1 = 2 d_zbar(u) * thb1,

and the conjugate-linear perturbation with coefficient field w adds
-s*conj(w*u).  Fields carry four reals per site (Re u, Im u, Re v, Im v);
conjugation is not complex-linear, so the eigenproblem runs over the real
vector space.  Flat vectors interleave the parts site by site,
[Re u00, Im u00, Re u01, Im u01, ...], which is the memory layout of a
C-ordered complex128 grid, so the two forms are views of one buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .config import SimConfig, phi_field

TWO_PI = 2.0 * math.pi


def flat_to_complex(x: np.ndarray, N: int) -> np.ndarray:
    """(N, N) complex view of a flat real vector.  It copies only when ``x``
    is not contiguous, as a column of a C-ordered block is."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return x.reshape(-1).view(np.complex128).reshape(N, N)


def complex_to_flat(u: np.ndarray) -> np.ndarray:
    """Flat real view of a complex grid (a copy only if ``u`` is not a
    contiguous complex128 array)."""
    return np.ascontiguousarray(u, dtype=np.complex128).reshape(-1).view(np.float64)


@dataclass
class LatticeField:
    """Spinor field on the grid: (N, N, 4) reals per site, the S+ component
    u in slots 0..1 and the S- component (coefficient of thb1) in 2..3."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 3 or data.shape[0] != data.shape[1] or data.shape[2] != 4:
            raise ValueError(f"expected (N, N, 4) data, got {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("field entries must be finite")
        self.data = data

    @classmethod
    def from_complex(cls, u=None, v=None, N=None):
        if u is None and v is None:
            raise ValueError("need at least one component")
        if u is not None:
            u = np.asarray(u, complex)
            N = u.shape[0]
        if v is not None:
            v = np.asarray(v, complex)
            N = v.shape[0]
        data = np.zeros((N, N, 4))
        if u is not None:
            data[:, :, 0] = u.real
            data[:, :, 1] = u.imag
        if v is not None:
            data[:, :, 2] = v.real
            data[:, :, 3] = v.imag
        return cls(data)

    @property
    def N(self) -> int:
        return self.data.shape[0]

    def u(self) -> np.ndarray:
        return self.data[:, :, 0] + 1j * self.data[:, :, 1]

    def v(self) -> np.ndarray:
        return self.data[:, :, 2] + 1j * self.data[:, :, 3]

    def density(self) -> np.ndarray:
        """|u|^2 + |v|^2 per site."""
        return np.sum(self.data ** 2, axis=2)

    def l2_norm(self) -> float:
        """L2 norm with cell weight (2pi/N)^2."""
        h = TWO_PI / self.N
        return float(h * np.sqrt(np.sum(self.data ** 2)))

    def normalized(self) -> "LatticeField":
        nrm = self.l2_norm()
        if nrm == 0:
            raise ValueError("cannot normalize the zero field")
        return LatticeField(self.data / nrm)


class TorusOperator:
    """Matvec pair for D_s and its real transpose on u/v grids."""

    def __init__(self, config: SimConfig, s: float):
        self.config = config
        self.N = config.N
        self.h = config.spacing
        self.s = float(s)
        self.w = phi_field(config)

    # -- complex-field form ------------------------------------------------

    def apply_plus(self, u: np.ndarray) -> np.ndarray:
        """S+ -> S-: v = 2 d_zbar u - s conj(w u)."""
        return kernels.ds_apply(np.ascontiguousarray(u, complex),
                                self.w, self.s, self.h)

    def apply_minus(self, v: np.ndarray) -> np.ndarray:
        """Real transpose S- -> S+: u = -2 d_z v - s conj(w v)."""
        return kernels.dst_apply(np.ascontiguousarray(v, complex),
                                 self.w, self.s, self.h)

    # -- flat real form ------------------------------------------------------

    @property
    def nreal(self) -> int:
        return 2 * self.N * self.N

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return complex_to_flat(self.apply_plus(flat_to_complex(x, self.N)))

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        return complex_to_flat(self.apply_minus(flat_to_complex(x, self.N)))

    def normal_matvec(self, x: np.ndarray) -> np.ndarray:
        """Symmetric positive-semidefinite D_s^T D_s on the u space."""
        return self.rmatvec(self.matvec(x))

    # -- bounds and dense forms ---------------------------------------------

    def sigma_max_bound(self) -> float:
        """max |derivative symbol| + s*max|w|; an upper bound for the largest
        singular value (triangle inequality in Fourier space)."""
        t = np.linspace(0.0, math.pi, 4097)
        sym_peak = np.max(np.abs(8.0 * np.sin(t) - np.sin(2.0 * t))) / (6.0 * self.h)
        return float(math.sqrt(2.0) * sym_peak + self.s * np.max(np.abs(self.w)))

    def dense(self) -> np.ndarray:
        """Materialize D_s as a real matrix (tests and small cross-checks)."""
        n = self.nreal
        cols = np.empty((n, n))
        e = np.zeros(n)
        for j in range(n):
            e[j] = 1.0
            cols[:, j] = self.matvec(e)
            e[j] = 0.0
        return cols


def assemble(config: SimConfig, s: float) -> TorusOperator:
    """Operator pair (matvec, rmatvec) for D_s at deformation strength s."""
    return TorusOperator(config, s)

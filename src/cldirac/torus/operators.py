"""The deformed operator on the flat torus, complex dimension 1.

With the unitary coframe th1 = dz/sqrt2 the twisted Dirac operator on the
trivially-connected trivial line bundle sends a function u to

    D u = (du/dx + i du/dy) u * thb1 = 2 d_zbar(u) * thb1,

and the conjugate-linear perturbation with coefficient field w adds
-s*conj(w*u).  A field is an (N, N) complex grid; conjugation is not
complex-linear, so the eigenproblem runs over the real vector space of
2N^2 reals.  Flat vectors interleave the parts site by site,
[Re u00, Im u00, Re u01, Im u01, ...], which is the memory layout of a
C-ordered complex128 grid, so the two forms are views of one buffer.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .config import SimConfig, phi_field


def flat_to_complex(x: np.ndarray, N: int) -> np.ndarray:
    """(N, N) complex view of a flat real vector.  It copies only when ``x``
    is not a contiguous float64 array; the eigensolver hands it contiguous
    rows of a transposed block, so there it never copies."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return x.reshape(-1).view(np.complex128).reshape(N, N)


def complex_to_flat(u: np.ndarray) -> np.ndarray:
    """Flat real view of a complex grid (a copy only if ``u`` is not a
    contiguous complex128 array)."""
    return np.ascontiguousarray(u, dtype=np.complex128).reshape(-1).view(np.float64)


class TorusOperator:
    """Matvec pair for D_s and its real transpose on complex grids.

    The operator owns the kernels' scratch grids and the intermediate
    D_s u of ``normal_matvec``; every apply returns a new array, and reads
    ``w`` when it runs, so ``w`` may be reassigned after construction.
    """

    def __init__(self, config: SimConfig, s: float):
        self.config = config
        self.N = config.N
        self.h = config.spacing
        self.s = float(s)
        self.w = phi_field(config)
        shape = (self.N, self.N)
        self._mid = np.empty(shape, dtype=np.complex128)
        self._work = (np.empty(shape, dtype=np.complex128),
                      np.empty(shape, dtype=np.complex128))

    # -- complex-field form ------------------------------------------------

    def apply_plus(self, u: np.ndarray) -> np.ndarray:
        """S+ -> S-: v = 2 d_zbar u - s conj(w u)."""
        return kernels.ds_apply(np.ascontiguousarray(u, complex),
                                self.w, self.s, self.h, work=self._work)

    def apply_minus(self, v: np.ndarray) -> np.ndarray:
        """Real transpose S- -> S+: u = -2 d_z v - s conj(w v)."""
        return kernels.dst_apply(np.ascontiguousarray(v, complex),
                                 self.w, self.s, self.h, work=self._work)

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
        v = kernels.ds_apply(flat_to_complex(x, self.N), self.w, self.s, self.h,
                             out=self._mid, work=self._work)
        return complex_to_flat(
            kernels.dst_apply(v, self.w, self.s, self.h, work=self._work))

    # -- bounds and dense forms ---------------------------------------------

    def sigma_max_bound(self) -> float:
        """max |derivative symbol| + s*max|w|; an upper bound for the largest
        singular value (triangle inequality in Fourier space)."""
        t = np.linspace(0.0, math.pi, 4097)
        sym_peak = np.max(np.abs(kernels.symbol(t, self.h)))
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


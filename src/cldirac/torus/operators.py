"""The deformed operator on the flat torus, complex dimension 1.

With the unitary coframe th1 = dz/sqrt2 the twisted Dirac operator on the
trivially-connected trivial line bundle sends a function u to

    D u = (du/dx + i du/dy) u * thb1 = 2 d_zbar(u) * thb1,

and the conjugate-linear perturbation with coefficient field w adds
-s*conj(w*u).  A field is its band of Fourier coefficients, a
(2M+1, 2M+1) complex array with M = N // 3 and ||u||_L2 = ||c||_2
(``kernels``); w is sampled on the (L, L) grid of
``SimConfig.product_grid_for(M)``, L >= 2M + b + 1 with b = max(|mx|, |my|)
over w's modes, on which the potential term projects w u onto the band
without aliasing.  Fields are read out on the (N, N) grid.

Conjugation is not complex-linear, so the eigenproblem runs over the real
vector space of 2 (2M+1)^2 reals, whose Euclidean inner product is the L2
inner product of the fields.  Flat vectors interleave the parts
coefficient by coefficient, [Re c0, Im c0, Re c1, Im c1, ...], which is
the memory layout of a C-ordered complex128 array, so the two forms are
views of one buffer.

An operator can also be built on a smaller band M_c < M, with w on that
band's own product grid.  The band M_c is a subspace of the band M, and
both potentials are exact projections, so the operator on M_c is the
Galerkin compression of the one on M: restricted to the band M_c, D_s of
``prolong(c)`` is D_s of c.  A sweep solves there first and starts the
solve on the band M from the prolonged Ritz block (``sweep``).
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .config import SimConfig, phi_field


def flat_to_complex(x: np.ndarray, side: int) -> np.ndarray:
    """(side, side) complex view of a flat real vector.  It copies only when
    ``x`` is not a contiguous float64 array; the eigensolver hands it
    contiguous rows of a transposed block, so there it never copies."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return x.reshape(-1).view(np.complex128).reshape(side, side)


def complex_to_flat(u: np.ndarray) -> np.ndarray:
    """Flat real view of a complex array (a copy only if ``u`` is not a
    contiguous complex128 array)."""
    return np.ascontiguousarray(u, dtype=np.complex128).reshape(-1).view(np.float64)


def prolong(block: np.ndarray, K_from: int, K_to: int) -> np.ndarray:
    """Flat band vectors of side ``K_from`` (the columns of an (nreal, k)
    block) as flat vectors of the larger side ``K_to``: coefficient m moves
    to index m mod K_to and the new modes are zero, an isometric embedding
    of the smaller band."""
    k = block.shape[1]
    m = np.fft.fftfreq(K_from, 1.0 / K_from).astype(int) % K_to
    c = np.ascontiguousarray(block.T).view(np.complex128).reshape(k, K_from, K_from)
    out = np.zeros((k, K_to, K_to), complex)
    out[:, m[:, None], m[None, :]] = c
    return out.reshape(k, -1).view(np.float64).T


class TorusOperator:
    """D_s on the band of side K = 2M+1, M = ``band_limit`` (by default
    ``config.band_limit``), with w sampled on the (L, L) product grid,
    L = ``config.product_grid_for(M)``.

    Every apply returns a new array and reads ``w`` when it runs, so ``w``
    may be reassigned after construction.
    """

    def __init__(self, config: SimConfig, s: float, band_limit: int | None = None):
        self.config = config
        self.N = config.N
        self.h = config.spacing
        self.M = config.band_limit if band_limit is None else band_limit
        self.K = 2 * self.M + 1
        self.s = float(s)
        self.w = phi_field(config, config.product_grid_for(self.M))

    @property
    def nreal(self) -> int:
        return 2 * self.K * self.K

    def normal_matvec(self, x: np.ndarray) -> np.ndarray:
        """Symmetric positive-semidefinite D_s^T D_s on flat band vectors."""
        v = kernels.ds_apply(flat_to_complex(x, self.K), self.w, self.s, self.h)
        return complex_to_flat(kernels.dst_apply(v, self.w, self.s, self.h))

    def field(self, x: np.ndarray) -> np.ndarray:
        """The flat band vector x as a field on the (N, N) grid; its
        h^2-weighted norm is ||x||_2."""
        return kernels.to_grid(flat_to_complex(x, self.K), self.N)

    def sigma_max_bound(self) -> float:
        """max |i mx - my| + s*max|w| = sqrt2 M + s*max|w|, with max|w| over
        the product grid; an upper bound for the largest singular value
        (triangle inequality, and Parseval on that grid for A)."""
        return float(math.sqrt(2.0) * self.M + self.s * np.max(np.abs(self.w)))

    def dense(self) -> np.ndarray:
        """Materialize D_s as a real matrix (tests and small cross-checks)."""
        n = self.nreal
        cols = np.empty((n, n))
        e = np.zeros(n)
        for j in range(n):
            e[j] = 1.0
            cols[:, j] = complex_to_flat(kernels.ds_apply(
                flat_to_complex(e, self.K), self.w, self.s, self.h))
            e[j] = 0.0
        return cols

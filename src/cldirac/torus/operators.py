"""The deformed operator on the flat torus, complex dimension 1.

With the unitary coframe th1 = dz/sqrt2 the twisted Dirac operator on the
trivially-connected trivial line bundle sends a function u to

    D u = (du/dx + i du/dy) u * thb1 = 2 d_zbar(u) * thb1,

and the conjugate-linear perturbation with coefficient field w adds
-s*conj(w*u).  A field is its band of Fourier coefficients, a
(2M+1, 2M+1) complex array with M = N // 3 and ||u||_L2 = ||c||_2
(``kernels``).  Fields are read out on the (N, N) grid.

Conjugation is not complex-linear, so the eigenproblem runs over the real
vector space of 2 (2M+1)^2 reals, whose Euclidean inner product is the L2
inner product of the fields.  Flat vectors interleave the parts
coefficient by coefficient, [Re c0, Im c0, Re c1, Im c1, ...], which is
the memory layout of a C-ordered complex128 array, so the two forms are
views of one buffer.

Every preset's w is a trigonometric polynomial, w = sum_k w_k e^{i k.x}
(``SimConfig.w_modes``), so on the band the potential is a sparse matrix:
the exact projection of conj(w u) is

    (A c)_n = sum_k conj(w_k) conj(c_{-n-k}),  over the k with |-n-k| <= M,

one 2x2 real block per mode of w in each row pair.  ``ds_matrix`` builds
D_s = D_0 - s A once per band and s as a real CSR matrix; the FFT kernels
of ``kernels`` are the reference it is tested against.

An operator can also be built on a smaller band M_c < M.  The band M_c is
a subspace of the band M, and A is the exact projection on both, so the
operator on M_c is the Galerkin compression of the one on M: restricted to
the band M_c, D_s of ``prolong(c)`` is D_s of c.  A sweep solves there
first and starts the solve on the band M from the prolonged Ritz block
(``sweep``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_array

from . import kernels
from .config import SimConfig


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


def ds_matrix(K: int, modes, s: float) -> csr_array:
    """D_s = D_0 - s A on the band of side K as a real (2K^2, 2K^2) CSR
    matrix on flat band vectors, for w given by ``modes``, (mx, my, w_k)
    triples (``SimConfig.w_modes``).

    Complex row n holds (i mx - my) c_n and, for each mode k,
    -s conj(w_k) conj(c_{-n-k}); in real form each is a 2x2 block, so every
    real row has 2 + 2 len(modes) slots, and indptr is a multiple of that
    width.  A source -n-k outside the band is an explicit zero on the
    row's own columns.  The arrays are built in place, with int32 indices
    and no COO step; D_s^T is ``D.T``, a view of the same arrays.
    """
    M = K // 2
    m = np.fft.fftfreq(K, 1.0 / K).astype(np.int64)
    mx, my = m[:, None], m[None, :]
    width = 2 + 2 * len(modes)
    data = np.empty((K, K, 2, width))
    cols = np.empty((K, K, 2, width), np.int32)
    own = 2 * np.arange(K * K).reshape(K, K, 1)
    # (i mx - my) c: Re row [-my, -mx], Im row [mx, -my] on (Re c, Im c)
    data[:, :, 0, 0] = data[:, :, 1, 1] = -my
    data[:, :, 0, 1] = -mx
    data[:, :, 1, 0] = mx
    cols[:, :, :, 0], cols[:, :, :, 1] = own, own + 1
    for t, (kx, ky, wk) in enumerate(modes):
        # b conj(c_j) with b = -s conj(w_k), j = -n - k: Re row [Re b, Im b],
        # Im row [Im b, -Re b] on (Re c_j, Im c_j)
        b_re, b_im = -s * wk.real, s * wk.imag
        jx, jy = -mx - kx, -my - ky
        inside = ((np.abs(jx) <= M) & (np.abs(jy) <= M))[:, :, None]
        src = np.where(inside, 2 * ((jx % K) * K + jy % K)[:, :, None], own)
        slot = 2 + 2 * t
        data[:, :, :, slot] = np.where(inside, [b_re, b_im], 0.0)
        data[:, :, :, slot + 1] = np.where(inside, [b_im, -b_re], 0.0)
        cols[:, :, :, slot], cols[:, :, :, slot + 1] = src, src + 1
    n = 2 * K * K
    indptr = np.arange(0, n * width + 1, width, dtype=np.int32)
    return csr_array((data.reshape(-1), cols.reshape(-1), indptr), shape=(n, n))


class TorusOperator:
    """D_s on the band of side K = 2M+1, M = ``band_limit`` (by default
    ``config.band_limit``), as the sparse matrix ``D`` (``ds_matrix``).
    Every apply returns a new array."""

    def __init__(self, config: SimConfig, s: float, band_limit: int | None = None):
        self.config = config
        self.N = config.N
        self.h = config.spacing
        self.M = config.band_limit if band_limit is None else band_limit
        self.K = 2 * self.M + 1
        self.s = float(s)
        self.D = ds_matrix(self.K, config.w_modes(), self.s)

    @property
    def nreal(self) -> int:
        return 2 * self.K * self.K

    def normal_matvec(self, x: np.ndarray) -> np.ndarray:
        """Symmetric positive-semidefinite D_s^T D_s on a flat band vector or
        on each column of an (nreal, k) block."""
        return self.D.T @ (self.D @ x)

    def field(self, x: np.ndarray) -> np.ndarray:
        """The flat band vector x as a field on the (N, N) grid; its
        h^2-weighted norm is ||x||_2."""
        return kernels.to_grid(flat_to_complex(x, self.K), self.N)

    def sigma_max_bound(self) -> float:
        """max |i mx - my| + s max|w| <= sqrt2 M + s ``config.w_bound``, an
        upper bound for the largest singular value (triangle inequality,
        and ||A|| <= max|w| since A is a projection of conj(w u))."""
        return float(math.sqrt(2.0) * self.M + self.s * self.config.w_bound)

    def dense(self) -> np.ndarray:
        """Materialize D_s as a real matrix (tests and small cross-checks)."""
        return self.D.toarray()

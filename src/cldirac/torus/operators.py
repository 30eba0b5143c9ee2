"""The deformed operator on the flat torus, complex dimension 1.

With the unitary coframe th1 = dz/sqrt2 the twisted Dirac operator on the
trivially-connected trivial line bundle sends a function u to

    D u = (du/dx + i du/dy) * thb1 = 2 d_zbar(u) * thb1,

and the conjugate-linear perturbation with coefficient field w adds
-s*conj(w*u).  These are the exact layer's maps at n = r = 1, and
``ds_matrix`` takes their coefficients from it (``fiber_maps``): the
symbols c(dx), c(dy) of ``clifford.symbol`` and the map of
``perturbation.apply_A`` with phi = (1), each on the unit spinor 1.

A field is its band of Fourier coefficients, a (2M+1, 2M+1) complex array
with M at most N // 3 (``SimConfig.band_limit``) and ||u||_L2 = ||c||_2
(``kernels``).  The operator holds only its band; ``sweep`` reads fields
out on the (N, N) display grid.

Conjugation is not complex-linear, so the eigenproblem runs over the real
vector space of 2 (2M+1)^2 reals, whose Euclidean inner product is the L2
inner product of the fields.  Flat vectors interleave the parts
coefficient by coefficient, [Re c0, Im c0, Re c1, Im c1, ...], which is
the memory layout of a C-ordered complex128 array, so the two forms are
views of one buffer.  This module is the one torus module that knows that
layout: ``flat_to_complex`` and ``complex_to_flat`` turn a vector into its
band and back, and an (nreal, k) block into a (k, K, K) stack of bands
and back; ``TorusOperator.per_real`` spreads a function of the modes over
the reals, and ``prolong`` reads a block's band from its row count.

Every preset's w is a trigonometric polynomial, w = sum_k w_k e^{i k.x}
(``SimConfig.w_modes``), so on the band the potential is a sparse matrix:
the exact projection of conj(w u) is

    (A c)_n = sum_k conj(w_k) conj(c_{-n-k}),  over the k with |-n-k| <= M,

one 2x2 real block per in-band source in each row pair.  ``ds_matrix``
builds D_s = D_0 - s A once per band and s as a real CSR matrix that
stores no zero; the hand-written FFT kernels of ``kernels`` are the
independent reference it is tested against.  Where mode m lives in a
band is ``kernels.band_modes``.

Bands are nested: a smaller band M_c < M is a subspace of the band M,
and A is the exact projection on both, so the operator on M_c is the
Galerkin compression of the one on M: restricted to the band M_c, D_s of
``prolong(c)`` is D_s of c.  A sweep solves each s on its own band, which
grows with s, and starts it from the previous band's Ritz block,
prolonged (``sweep``).
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.sparse import csr_array

from ..clifford import Spinor, symbol
from ..fiber import Covector, FiberContext, scalar_form
from ..perturbation import PhiMap, apply_A
from . import kernels
from .config import SimConfig


def flat_to_complex(x: np.ndarray, side: int) -> np.ndarray:
    """The (side, side) band of a flat real vector, or the (k, side, side)
    bands of the columns of an (nreal, k) block.  A view when each
    column's reals are contiguous, as in a contiguous float64 vector or
    the block of ``complex_to_flat``; else one copy."""
    x = np.ascontiguousarray(np.transpose(x), dtype=np.float64)
    return x.view(np.complex128).reshape(x.shape[:-1] + (side, side))


def complex_to_flat(u: np.ndarray) -> np.ndarray:
    """The flat real vector of a (side, side) band, or the (nreal, k) block
    whose columns are the bands of a (k, side, side) stack: a view, which
    copies only when ``u`` is not a contiguous complex128 array."""
    u = np.ascontiguousarray(u, dtype=np.complex128)
    return u.reshape(u.shape[:-2] + (-1,)).view(np.float64).T


def prolong(block: np.ndarray, K_to: int) -> np.ndarray:
    """Flat band vectors (the columns of an (nreal, k) block, nreal = 2 K^2
    for the block's band side K) as flat vectors of the larger side
    ``K_to``: ``kernels.embed``, an isometric embedding of the smaller
    band."""
    K_from = math.isqrt(block.shape[0] // 2)
    return complex_to_flat(kernels.embed(flat_to_complex(block, K_from), K_to))


def _part(src: np.ndarray, a=0.0, b=0.0) -> csr_array:
    """Real CSR matrix of c -> a c_src + b conj(c_src): complex row n reads
    coefficient src[n], so real rows 2n and 2n + 1 hold a 2x2 block on
    columns 2 src[n] and 2 src[n] + 1.  Indices are int32, and its zero
    values are not stored."""
    n = 2 * src.size
    # block entry (r, c) of row pair i is at 4i + 2r + c of data and cols
    data = np.stack((a.real + b.real, b.imag - a.imag, a.imag + b.imag,
                     a.real - b.real), axis=-1).reshape(-1)
    cols = np.add.outer(2 * src.astype(np.int32), np.array([0, 1, 0, 1], np.int32))
    keep = data != 0
    indptr = np.zeros(n + 1, np.int32)
    indptr[1:] = np.cumsum(keep, dtype=np.int32)[1::2]
    return csr_array((data[keep], cols.reshape(-1)[keep], indptr), shape=(n, n))


@functools.cache
def fiber_maps() -> tuple:
    """(c_dx, c_dy, a): the thb1 coefficients of c(dx) 1, c(dy) 1 and
    apply_A(phi, 1) for phi = (1) on the fiber C^1, as complex numbers, so
    that D_s u = (c_dx du/dx + c_dy du/dy + s a conj(w u)) thb1.  They are
    exactly (1, i, -1), made once per process."""
    ctx = FiberContext(1)
    one = Spinor(ctx, [scalar_form(ctx, 1)])  # the unit of S+
    root = ctx.sqrt2 * ctx.rational(1, 2)  # dx^{0,1} = thb1/sqrt2, dy^{0,1} = i thb1/sqrt2
    images = [symbol(Covector(ctx, (c,)), 1, "D")(one) for c in (root, root * ctx.i)]
    images.append(apply_A(PhiMap(ctx, 1, ((1,),)), one))
    return tuple(dict(z.parts[0].items())[((), (1,))].to_complex() for z in images)


def ds_matrix(K: int, modes, s: float) -> csr_array:
    """D_s = D_0 - s A on the band of side K as a real (2K^2, 2K^2) CSR
    matrix on flat band vectors, for w given by ``modes``, (mx, my, w_k)
    triples (``SimConfig.w_modes``), with the maps of ``fiber_maps``.

    Complex row n holds i (c_dx mx + c_dy my) c_n = (i mx - my) c_n and,
    for each mode k whose source -n-k is in the band, s a conj(w_k)
    conj(c_{-n-k}) = -s conj(w_k) conj(c_{-n-k}).  D_0 and each mode are
    one ``_part``.  The sum adds the entries that land on the same
    (row, column), so a real row stores at most 2 + 2 len(modes) entries;
    summing the parts one at a time, not as one list of every entry, keeps
    the build's peak memory near twice the matrix's.  D_s^T is ``D.T``, a
    view of the same arrays.
    """
    c_dx, c_dy, a = fiber_maps()
    m = kernels.band_modes(K)
    mx, my = m[:, None], m[None, :]
    D = _part(np.arange(K * K), a=(1j * c_dx * mx + 1j * c_dy * my).reshape(-1))
    for kx, ky, wk in modes:
        jx, jy = -mx - kx, -my - ky
        inside = (np.abs(jx) <= K // 2) & (np.abs(jy) <= K // 2)
        b = np.where(inside, s * a * np.conj(wk), 0)
        D = D + _part(((jx % K) * K + jy % K).reshape(-1), b=b.reshape(-1))
    return D


class TorusOperator:
    """D_s on the band of side K = 2M+1, M = ``band_limit`` (by default
    ``config.band_limit``), as the sparse matrix ``D`` (``ds_matrix``) and
    its transpose ``DT``.  Every apply returns a new array."""

    def __init__(self, config: SimConfig, s: float, band_limit: int | None = None):
        self.config = config
        self.M = config.band_limit if band_limit is None else band_limit
        self.K = 2 * self.M + 1
        self.s = float(s)
        self.D = ds_matrix(self.K, config.w_modes(), self.s)
        self.DT = self.D.T  # a view of D's arrays, not rebuilt per apply

    @property
    def nreal(self) -> int:
        return 2 * self.K * self.K

    def per_real(self, f) -> np.ndarray:
        """f(mx, my) on the band's modes, mx as a (K, 1) and my as a (1, K)
        int array, with one entry per real of a flat band vector: the value
        at coefficient i is entries 2i and 2i + 1."""
        m = kernels.band_modes(self.K)
        return np.repeat(f(m[:, None], m[None, :]).reshape(-1), 2)

    def normal_matvec(self, x: np.ndarray) -> np.ndarray:
        """Symmetric positive-semidefinite D_s^T D_s on a flat band vector or
        on each column of an (nreal, k) block."""
        return self.DT @ (self.D @ x)

    def sigma_max_bound(self) -> float:
        """``config.sigma_max_bound`` on this band and s: an upper bound for
        the largest singular value of D."""
        return float(self.config.sigma_max_bound(self.M, self.s))

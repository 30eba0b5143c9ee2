"""The band layout and its FFT kernels for D_s = D_0 - s A on the flat torus.

A field u on [0, 2pi)^2 is its band of Fourier coefficients c_m with
|mx|, |my| <= M, a (2M+1, 2M+1) complex array (axis 0 is mx, axis 1 is
my, each in the FFT order of ``band_modes``: 0, 1, ..., M, -M, ..., -1),
scaled so that

    u(x, y) = (1/2pi) sum_m c_m exp(i(mx x + my y)),    ||u||_L2 = ||c||_2.

This module is the one place that knows where mode m lives: at index m of
``band_modes``, and at index m mod L of an (L, L) array (``embed`` and its
inverse ``restrict``).  ``to_grid`` reads bands out on the (N, N) grid.

The solver applies D_s as a sparse matrix (``operators.ds_matrix``) whose
D_0 and A come from the exact fiber layer.  The rest of this module is
the hand-written FFT reference that it is tested against, independent of
that layer: ``d0_multiplier`` is D_0 = d/dx + i d/dy on the band, the
multiplier i mx - my, and the FFT pair

    forward    D_s c   = (i mx - my) c - s A c
    transpose  D_s^T c = (-i mx - my) c - s A c,
    A c = restrict(fft2(conj(w * ifft2(embed(c, L)))), K),

has w sampled on an (L, L) grid whose side the kernels read from
``w.shape``.  The scales cancel: A c = conj(c) at m = 0 for w = 1.  As a
real-linear operator A is its own transpose, since <A c, d> = L^2 Re
sum_j w_j u_j v_j is symmetric in the grid fields u, v of c, d.  A c is
the exact projection of conj(w u) onto the band while no product mode
folds onto it: L > 2M + b, with b = max(|mx|, |my|) over the modes of w
(the 2/3 rule of Orszag, J. Atmos. Sci. 28, 1971, sized for b = M, is
the case L = N).
"""

from __future__ import annotations

import functools
import math

import numpy as np


@functools.lru_cache(maxsize=8)
def band_modes(K: int) -> np.ndarray:
    """Read-only int array of the modes along one axis of a band of side
    K, in FFT order: 0, 1, ..., (K - 1) // 2, -(K // 2), ..., -1."""
    m = np.fft.fftfreq(K, 1.0 / K).astype(np.int64)
    m.setflags(write=False)
    return m


@functools.lru_cache(maxsize=8)
def d0_multiplier(K: int) -> np.ndarray:
    """Read-only (K, K) array i mx - my: D_0 on a band of side K, as the
    FFT reference writes it by hand; the solver's D_0 is
    ``operators.ds_matrix``'s, from the exact layer."""
    m = band_modes(K)
    d = 1j * m[:, None] - m[None, :]
    d.setflags(write=False)
    return d


def _at(K: int, L: int) -> tuple:
    """Index of the bands of side K in (..., L, L) arrays: m at m mod L."""
    at = band_modes(K) % L
    return ..., at[:, None], at


def embed(c: np.ndarray, L: int) -> np.ndarray:
    """The bands c (last two axes of side K <= L) as new (..., L, L)
    complex arrays: mode m at index m mod L, zero elsewhere."""
    out = np.zeros(c.shape[:-2] + (L, L), complex)
    out[_at(c.shape[-1], L)] = c
    return out


def restrict(g: np.ndarray, K: int) -> np.ndarray:
    """The bands of side K of the (..., L, L) arrays g, as new arrays: the
    inverse of ``embed`` on its image."""
    return g[_at(K, g.shape[-1])]


def potential(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """A c = restrict(fft2(conj(w * ifft2(embed(c)))), K) for a band c of
    side K and a grid w of any side at least K."""
    grid = np.fft.ifft2(embed(c, w.shape[0]))
    return restrict(np.fft.fft2(np.conj(w * grid)), c.shape[0])


def ds_apply(c, w, s, h):
    """D_s c = (i mx - my) c - s A c for a complex band c, as a new array.
    ``h``, the display grid's spacing 2pi/N, does not enter: the band
    multipliers are integers."""
    return d0_multiplier(c.shape[0]) * c - s * potential(c, w)


def dst_apply(c, w, s, h):
    """D_s^T c = (-i mx - my) c - s A c; arguments as in ds_apply."""
    return np.conj(d0_multiplier(c.shape[0])) * c - s * potential(c, w)


def to_grid(c: np.ndarray, N: int) -> np.ndarray:
    """The fields of the bands c (last two axes) on the (N, N) grid, axis
    0 = x; each h^2-weighted norm, h = 2pi/N, is its ||c||_2 (Parseval)."""
    return np.fft.ifft2(embed(c, N)) * (N * N / (2.0 * math.pi))

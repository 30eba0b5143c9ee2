"""The band and its FFT kernels for D_s = D_0 - s A on the flat torus.

A field u on [0, 2pi)^2 is its band of Fourier coefficients c_m with
|mx|, |my| <= M, a (2M+1, 2M+1) complex array in FFT order (axis 0 is mx,
axis 1 is my, each 0, 1, ..., M, -M, ..., -1), scaled so that

    u(x, y) = (1/2pi) sum_m c_m exp(i(mx x + my y)),    ||u||_L2 = ||c||_2.

``to_grid`` reads a band out on the (N, N) grid, and ``d0_multiplier`` is
D_0 = d/dx + i d/dy on the band, the multiplier i mx - my.  The solver
applies D_s as a sparse matrix (``operators.ds_matrix``); the FFT pair

    forward    D_s c   = (i mx - my) c - s A c
    transpose  D_s^T c = (-i mx - my) c - s A c,
    A c = band(fft2(conj(w * ifft2(pad(c))))),

is the reference it is tested against, with w sampled on an (L, L) grid
whose side the kernels read from ``w.shape``, ``pad`` placing c at the
indices m mod L of an (L, L) zero array and ``band`` keeping those
indices.  The scales cancel: A c = conj(c) at m = 0 for w = 1.  As a
real-linear operator A is its own transpose, since
<A c, d> = L^2 Re sum_j w_j u_j v_j is symmetric in the grid fields u, v
of c, d.  A c is the exact projection of conj(w u) onto the band while no
product mode folds onto it: L > 2M + b, with b = max(|mx|, |my|) over the
modes of w (the 2/3 rule of Orszag, J. Atmos. Sci. 28, 1971, sized for
b = M, is the case L = N).  Each 2-D transform runs its axis-1 pass on the
band's rows only.
"""

from __future__ import annotations

import functools
import math

import numpy as np


@functools.lru_cache(maxsize=8)
def d0_multiplier(K: int) -> np.ndarray:
    """Read-only (K, K) array i mx - my: D_0 on a band of side K."""
    m = np.fft.fftfreq(K, 1.0 / K)
    d = 1j * m[:, None] - m[None, :]
    d.setflags(write=False)
    return d


def _synthesize(c: np.ndarray, N: int) -> np.ndarray:
    """ifft2(pad(c)) on an (N, N) grid."""
    K, hi = c.shape[0], (c.shape[0] + 1) // 2
    rows = np.concatenate((c[:, :hi], np.zeros((K, N - K)), c[:, hi:]), axis=1)
    np.fft.ifft(rows, axis=1, out=rows)
    grid = np.concatenate((rows[:hi], np.zeros((N - K, N)), rows[hi:]))
    np.fft.ifft(grid, axis=0, out=grid)
    return grid


def potential(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """A c = band(fft2(conj(w * ifft2(pad(c))))) for a band c and a grid w
    of any side at least the band's."""
    N, K = w.shape[0], c.shape[0]
    hi, lo = (K + 1) // 2, K // 2  # how many modes have m >= 0 and m < 0
    grid = _synthesize(c, N)
    np.multiply(grid, w, out=grid)
    np.conj(grid, out=grid)
    np.fft.fft(grid, axis=0, out=grid)
    rows = np.concatenate((grid[:hi], grid[N - lo:]))
    np.fft.fft(rows, axis=1, out=rows)
    return np.concatenate((rows[:, :hi], rows[:, N - lo:]), axis=1)


def ds_apply(c, w, s, h):
    """D_s c = (i mx - my) c - s A c for a complex band c, as a new array.
    ``h``, the display grid's spacing 2pi/N, does not enter: the band
    multipliers are integers."""
    out = potential(c, w)
    out *= -s
    out += d0_multiplier(c.shape[0]) * c
    return out


def dst_apply(c, w, s, h):
    """D_s^T c = (-i mx - my) c - s A c; arguments as in ds_apply."""
    out = potential(c, w)
    out *= -s
    out += np.conj(d0_multiplier(c.shape[0])) * c
    return out


def to_grid(c: np.ndarray, N: int) -> np.ndarray:
    """The field of the band c on the (N, N) grid, axis 0 = x; its
    h^2-weighted norm, h = 2pi/N, is ||c||_2 (Parseval)."""
    grid = _synthesize(c, N)
    grid *= N * N / (2.0 * math.pi)
    return grid

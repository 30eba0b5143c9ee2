"""Grid kernels for the deformed operator, in numpy.

The hot loop is the matvec of D_s and of its transpose on an (N, N) complex
field:

    forward    v = (Dx + i Dy) u - s*conj(w*u)
    transpose  u = -(Dx - i Dy) v - s*conj(w*v)

with Dx, Dy the 4th-order centered periodic differences.
"""

from __future__ import annotations

import numpy as np

# Name of the kernel implementation, recorded in every report.
BACKEND = "numpy"


def _deriv4(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    return (8.0 * (np.roll(u, -1, axis) - np.roll(u, 1, axis))
            - (np.roll(u, -2, axis) - np.roll(u, 2, axis))) / (12.0 * h)


def ds_apply(u, w, s, h):
    return _deriv4(u, 0, h) + 1j * _deriv4(u, 1, h) - s * np.conj(w * u)


def dst_apply(v, w, s, h):
    return -(_deriv4(v, 0, h) - 1j * _deriv4(v, 1, h)) - s * np.conj(w * v)

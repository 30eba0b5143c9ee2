"""Grid kernels for the deformed operator, in numpy.

The hot loop is the matvec of D_s and of its transpose on an (N, N) complex
field:

    forward    v = (Dx + i Dy) u - s*conj(w*u)
    transpose  u = -(Dx - i Dy) v - s*conj(w*v)

with Dx, Dy the 4th-order centered periodic differences

    (8 (u[i+1] - u[i-1]) - (u[i+2] - u[i-2])) / (12 h),

whose Fourier symbol is ``symbol``: Dx exp(i m x) = i symbol(m h, h) exp(i m x).

Each difference u[i+k] - u[i-k] is one ``np.subtract`` of slices, written
straight into a buffer: the interior as one contiguous slab of the
flattened grid and the periodic wrap as two edge strips, so no shifted
copy of the field is made.  Every later step
is a ufunc written in place, with the operands in the order of the formulas
above, so the result is bit for bit that of the same formulas evaluated on
shifted copies of the field.
"""

from __future__ import annotations

import numpy as np

# Name of the kernel implementation, recorded in every report.
BACKEND = "numpy"


def symbol(theta, h):
    """(8 sin(theta) - sin(2 theta)) / (6 h), the symbol of the difference
    stencil at theta = m h; it approximates m to 4th order."""
    return (8.0 * np.sin(theta) - np.sin(2.0 * theta)) / (6.0 * h)


def _diff(u: np.ndarray, k: int, axis: int, out: np.ndarray) -> None:
    """out[i] = u[i + k] - u[i - k] along ``axis`` of an (N, N) grid,
    periodically (2k <= N); ``out`` is C-contiguous.

    One subtract over the flattened grid, shifted by k steps along the
    axis, gives every site whose neighbours do not wrap.  Along axis 1 it
    also writes across row ends into the first and last k columns; the two
    edge strips, taken last, overwrite those.
    """
    n = u.shape[axis]
    step = k * u.shape[1] if axis == 0 else k
    flat, flat_out = u.reshape(-1), out.reshape(-1)
    np.subtract(flat[2 * step:], flat[:-2 * step], out=flat_out[step:-step])
    if axis == 1:
        u, out = u.T, out.T
    np.subtract(u[k:2 * k], u[n - k:], out=out[:k])
    np.subtract(u[:k], u[n - 2 * k:n - k], out=out[n - k:])


def _deriv4(u, axis, h, out, tmp) -> None:
    """out = 4th-order derivative of u along ``axis``; ``tmp`` is scratch."""
    _diff(u, 1, axis, out)
    _diff(u, 2, axis, tmp)
    np.multiply(8.0, out, out=out)
    np.subtract(out, tmp, out=out)
    np.divide(out, 12.0 * h, out=out)


def _buffers(u, out, work):
    if out is None:
        out = np.empty(u.shape, dtype=np.complex128)
    if work is None:
        work = (np.empty_like(out), np.empty_like(out))
    buffers = (out, work[0], work[1])
    if not all(b.flags.c_contiguous for b in buffers):
        raise ValueError("out and work must be C-contiguous grids")
    return buffers


def _derivatives(u, h, out, a, b) -> None:
    """out = Dx u and a = i Dy u; b is scratch."""
    _deriv4(u, 0, h, out, a)
    _deriv4(u, 1, h, a, b)
    np.multiply(1j, a, out=a)


def _subtract_potential(u, w, s, out, b) -> None:
    """out -= s*conj(w*u), with b as scratch."""
    np.multiply(w, u, out=b)
    np.conj(b, out=b)
    np.multiply(s, b, out=b)
    np.subtract(out, b, out=out)


def ds_apply(u, w, s, h, out=None, work=None):
    """v = (Dx + i Dy) u - s*conj(w*u) for a C-contiguous complex128 grid u.

    ``out`` receives v (a new array if None) and must not overlap u;
    ``work`` is a pair of scratch grids of u's shape (allocated if None).
    """
    out, a, b = _buffers(u, out, work)
    _derivatives(u, h, out, a, b)
    np.add(out, a, out=out)
    _subtract_potential(u, w, s, out, b)
    return out


def dst_apply(v, w, s, h, out=None, work=None):
    """u = -(Dx - i Dy) v - s*conj(w*v); ``out`` and ``work`` as in ds_apply."""
    out, a, b = _buffers(v, out, work)
    _derivatives(v, h, out, a, b)
    np.subtract(out, a, out=out)
    np.negative(out, out=out)
    _subtract_potential(v, w, s, out, b)
    return out

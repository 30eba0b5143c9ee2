"""Matrix-free smallest eigenpairs of the normal operator.

``normal_eigenpairs`` is the one solver: it takes the operator, the
preconditioner and the residual scale from the ``TorusOperator``, and the
number of pairs, the tolerance, the seed and the cap from the ``SimConfig``.

LOBPCG on D_s^T D_s, preconditioned by the inverse of its translation
invariant part, shifted: the Fourier multiplier

    1 / (|derivative symbol|^2 + shift),
    shift = max(s^2 (mean|w|^2 - min|w|^2), 1e-2),

with the stencil's symbol from ``kernels.symbol``.  For constant w,
D_s^T D_s = D_0^T D_0 + s^2 |w|^2 exactly, so the multiplier is the
shift-invert (A - (s^2 |w|^2 - 1e-2))^-1 of the lowest cluster and LOBPCG
converges in a few iterations; where w vanishes on the grid (min|w|^2 = 0)
it is the plain s^2 mean|w|^2 shift.  The multiplier is even and positive
for any positive shift, so the preconditioner is symmetric positive
definite as a real-linear operator, and the shift moves only the speed of
convergence, never the answer.  It costs one FFT pair per application.

A sweep over s warm-starts each solve with the whole Ritz block of the
previous s (``EigenResult.block``, the k wanted pairs and the guard
columns), orthonormalized by QR; the lowest modes move continuously in s,
so the block is already close to the new invariant subspace.  Only the
matvec of the normal operator enters; residuals are checked explicitly,
stalled solves are restarted with a widened block, and non-convergence is
reported in the result, never silently dropped.

LOBPCG applies the operator and the preconditioner to whole blocks.  One
wrapper, ``blockwise``, turns each per-vector function into a block
function: one transposed copy of the block in, whose rows are contiguous
vectors that the grid code views without copying, one call per vector,
and one C-ordered copy out.  The result has the same bits and layout as
applying the function to each strided column and stacking the results, so
the solver's path does not depend on how the block is fed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import lobpcg

from . import kernels
from .config import SimConfig
from .operators import TorusOperator, complex_to_flat, flat_to_complex


@dataclass
class EigenResult:
    values: np.ndarray        # ascending, clamped at 0
    vectors: np.ndarray       # (nreal, k), unit L2 norm with cell weights
    residuals: np.ndarray     # ||A x - lambda x||_2 per pair (Euclidean)
    converged: np.ndarray     # residual <= tol * opnorm_estimate
    iterations: int           # LOBPCG residual-history rows over all runs:
                              # best iterate + 2 per run (initial and final
                              # residual), so a converged start reports 2
    opnorm_estimate: float    # sigma_max_bound()**2, the residual scale
    block: np.ndarray         # whole Ritz block of the last LOBPCG run, with
                              # ``vectors`` as its leading columns; the warm
                              # start for the next s

    @property
    def all_converged(self) -> bool:
        return bool(np.all(self.converged))


def fourier_preconditioner(op: TorusOperator):
    """SPD approximate inverse of D_s^T D_s from its constant-coefficient
    Fourier symbol."""
    N, h, s = op.N, op.h, op.s
    m = np.fft.fftfreq(N, d=1.0 / N)
    sym_sq = kernels.symbol(m * h, h) ** 2
    w_sq = np.abs(op.w) ** 2
    shift = max(float(s * s * (np.mean(w_sq) - np.min(w_sq))), 1e-2)
    mult = 1.0 / (sym_sq[:, None] + sym_sq[None, :] + shift)
    spectrum = np.empty((N, N), dtype=np.complex128)

    # fft2 and ifft2 are these 1-D transforms, last axis first; calling
    # them directly skips fft2's argument handling, a third of an apply at
    # N = 64.  The forward pair writes into one buffer; the inverse pair
    # allocates, since an inverse FFT written over its input rounds
    # differently.
    def apply(x: np.ndarray) -> np.ndarray:
        np.fft.fft(flat_to_complex(x, N), axis=1, out=spectrum)
        np.fft.fft(spectrum, axis=0, out=spectrum)
        np.multiply(spectrum, mult, out=spectrum)
        return complex_to_flat(np.fft.ifft(np.fft.ifft(spectrum, axis=1), axis=0))

    return apply


def blockwise(f):
    """Block form of a per-vector function f: column j of the result is
    f(X[:, j]), as a C-ordered array."""
    def apply(X: np.ndarray) -> np.ndarray:
        rows = np.ascontiguousarray(X.T)
        out = np.empty(rows.shape)
        for j in range(len(rows)):
            out[j] = f(rows[j])
        del rows  # freed before the copy out: one block less at the peak
        return np.ascontiguousarray(out.T)

    return apply


def residual_norms(apply_block, values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """||A x_j - lambda_j x_j||_2 per column, with A given in block form."""
    ax = apply_block(vectors)
    out = np.empty(len(values))
    for j in range(len(values)):
        out[j] = np.linalg.norm(ax[:, j] - values[j] * vectors[:, j])
    return out


def normal_eigenpairs(op: TorusOperator, config: SimConfig,
                      start: np.ndarray | None = None) -> EigenResult:
    """The ``config.eig_count`` smallest eigenpairs of D_s^T D_s.

    LOBPCG runs on ``op.normal_matvec`` with ``fourier_preconditioner(op)``
    and at most ``config.max_iterations`` iterations per run.  A pair has
    converged when its residual is at most ``config.eig_tol * opnorm``,
    with opnorm = ``op.sigma_max_bound()**2``.  Returned vectors have unit
    L2 norm with cell weight h^2.  ``start`` is a start block of at least
    eig_count columns, such as the ``block`` of the solve at the previous
    s; without it the start block is random, seeded by ``config.seed``.
    """
    k, nreal = config.eig_count, op.nreal
    opnorm = op.sigma_max_bound() ** 2
    rng = np.random.default_rng(config.seed)
    if start is None:
        x0 = rng.standard_normal((nreal, min(max(k + 2, 4), nreal)))
        x0[:, 0] = 1.0  # constant field: exact kernel direction when w = 0
    else:
        x0 = np.asarray(start, dtype=float)
        if x0.shape[0] != nreal or not k <= x0.shape[1] <= nreal:
            raise ValueError(f"start block of shape {x0.shape} does not fit "
                             f"{nreal} rows and k = {k}")
    x0, _ = np.linalg.qr(x0)

    operator = blockwise(op.normal_matvec)
    preconditioner = blockwise(fourier_preconditioner(op))

    threshold = max(config.eig_tol, 1e-15) * opnorm
    iterations = 0

    # LOBPCG can stall on (near-)degenerate clusters; warm restarts with a
    # widened guard block clear that without giving up the matvec-only
    # contract.  The solver aims a factor below the reported threshold so
    # the explicit residual check is not knife-edge.
    values = vectors = residuals = None
    for attempt in range(3):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            values, block, hist = lobpcg(
                operator, x0, M=preconditioner, tol=0.2 * threshold,
                maxiter=config.max_iterations, largest=False,
                retResidualNormsHistory=True)
        iterations += len(hist)
        order = np.argsort(values)
        block = np.asarray(block)[:, order]
        values = np.asarray(values)[order[:k]]
        vectors = block[:, :k]
        residuals = residual_norms(operator, values, vectors)
        if np.all(residuals <= threshold):
            break
        guards = rng.standard_normal((nreal, min(2 * (attempt + 1), nreal - k)))
        x0, _ = np.linalg.qr(np.hstack([vectors, guards]))

    converged = residuals <= threshold

    values = np.clip(values, 0.0, None)
    # normalized in place: the wanted vectors stay the leading columns of
    # the block, so a sweep holds one copy of them
    vectors /= op.h * np.linalg.norm(vectors, axis=0)
    return EigenResult(values, vectors, residuals, converged,
                       iterations, opnorm, block)


def dense_sigma_min(op: TorusOperator) -> float:
    """Smallest singular value of D_s by dense SVD; independent cross-check
    for small grids."""
    return float(np.linalg.svd(op.dense(), compute_uv=False)[-1])

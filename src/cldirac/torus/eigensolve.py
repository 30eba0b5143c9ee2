"""Smallest eigenpairs of the normal operator by LOBPCG.

``normal_eigenpairs`` is the one solver: it takes the operator, the
preconditioner and the residual scale from the ``TorusOperator``, and the
number of pairs, the tolerance, the seed and the cap from the ``SimConfig``.

LOBPCG on D_s^T D_s, preconditioned by the inverse of its translation
invariant part, shifted: the diagonal on the band

    1 / (|m|^2 + shift),    shift = max(s^2 (mean|w|^2 - min|w|^2), 1e-2),

since D_0^T D_0 = |m|^2 on the band (``kernels``: coefficients scaled so
that the Euclidean norm is the L2 norm).  Both moments come from the
modes of w (``SimConfig.w_modes``): mean|w|^2 = sum_k |w_k|^2 by
Parseval, and min|w|^2 is |c|^2 when w is the constant c, its one mode
(0, 0), and 0 otherwise: sin_zeros vanishes, and a sweep runs a custom w
only when it has a zero.  So a solve reads w's modes, s and the band M,
never the display grid N.  For constant w, D_s^T D_s = D_0^T D_0 +
s^2 |w|^2 exactly, so the diagonal is the shift-invert
(A - (s^2 |w|^2 - 1e-2))^-1 of the lowest cluster; where w vanishes it is
the plain s^2 mean|w|^2 shift.  The diagonal is positive for any positive
shift, so the preconditioner is symmetric positive definite, and the
shift moves only the speed of convergence, never the answer.

Without a start block a solve starts from the band basis vectors of
lowest |m|, the preconditioner's eigenvectors: for constant w they span
the lowest cluster, so LOBPCG stops after its first residual check.  A
sweep passes a start block, orthonormalized here by QR: the whole Ritz
block (``EigenResult.block``, the k wanted pairs and the guard columns)
of the previous s, or of the same s on a smaller band, prolonged onto
the band of this solve (``operators.prolong``).  The lowest modes move
continuously in s, and a band that resolves them holds nearly all their
mass, so the block is already close to the new invariant subspace
(``sweep``).  The solver does not know where its start came from, and
its own residual check decides convergence.  Only the matvec of
the normal operator enters; residuals are checked explicitly, stalled
solves are restarted with a widened block whose guard columns are drawn
from ``config.seed``, and non-convergence is reported in the result, never
silently dropped.

LOBPCG applies the operator and the preconditioner to whole blocks: the
operator is two sparse products, ``D.T @ (D @ X)`` (``operators``), and the
preconditioner a diagonal that scales the rows of a block in one multiply.
The residual check applies the operator to the block of wanted vectors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import lobpcg

from .config import SimConfig
from .operators import TorusOperator


@dataclass
class EigenResult:
    values: np.ndarray        # ascending, clamped at 0
    vectors: np.ndarray       # (nreal, k), unit norm
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


def _m_sq(mx, my):
    return mx * mx + my * my


def fourier_preconditioner(op: TorusOperator):
    """SPD approximate inverse of D_s^T D_s: the diagonal 1 / (|m|^2 + shift),
    applied to a vector or, row by row, to an (nreal, k) block."""
    modes = op.config.w_modes()
    mean_sq = sum(abs(c) ** 2 for _mx, _my, c in modes)
    min_sq = abs(modes[0][2]) ** 2 if [m[:2] for m in modes] == [(0, 0)] else 0.0
    shift = max(op.s ** 2 * (mean_sq - min_sq), 1e-2)
    mult = 1.0 / (op.per_real(_m_sq) + shift)

    def apply(x: np.ndarray) -> np.ndarray:
        return x * mult[:, None] if x.ndim == 2 else x * mult

    return apply


def lowest_modes(op: TorusOperator, count: int) -> np.ndarray:
    """(nreal, count) block of the band basis vectors of lowest |m|."""
    block = np.zeros((op.nreal, count))
    block[np.argsort(op.per_real(_m_sq), kind="stable")[:count], np.arange(count)] = 1.0
    return block


def residual_norms(apply_block, values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """||A x_j - lambda_j x_j||_2 per column, with A applied to the block."""
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
    norm, which is the L2 norm of their fields.  ``start`` is a start block
    of at least eig_count columns, such as the ``block`` of the solve at
    the previous s, prolonged onto this band; without it the start block
    is ``lowest_modes``.
    """
    k, nreal = config.eig_count, op.nreal
    opnorm = op.sigma_max_bound() ** 2
    rng = np.random.default_rng(config.seed)
    if start is None:
        x0 = lowest_modes(op, min(max(k + 2, 4), nreal))
    else:
        x0 = np.asarray(start, dtype=float)
        if x0.shape[0] != nreal or not k <= x0.shape[1] <= nreal:
            raise ValueError(f"start block of shape {x0.shape} does not fit "
                             f"{nreal} rows and k = {k}")
    x0, _ = np.linalg.qr(x0)

    operator = op.normal_matvec
    preconditioner = fourier_preconditioner(op)

    threshold = config.eig_tol * opnorm
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
    vectors /= np.linalg.norm(vectors, axis=0)
    return EigenResult(values, vectors, residuals, converged,
                       iterations, opnorm, block)


def dense_sigma_min(op: TorusOperator) -> float:
    """Smallest singular value of D_s by dense SVD; independent cross-check
    for small grids."""
    return float(np.linalg.svd(op.D.toarray(), compute_uv=False)[-1])

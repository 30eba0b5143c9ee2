"""Conjugate-linear perturbation of the twisted Dirac symbol data.

A bundle map phi: E -> K (x) E^*, constant on the model fiber, is stored as
its matrix (phi_ij) in unitary frames together with a unit scalar framing
the canonical line K = Lambda^{n,0}.  The induced conjugate-linear map on
spinors is, componentwise,

    (A_phi z)_i = sum_j conj(phi_ij) tau(eta ^ beta_j),

with beta_j the j-th form part of z and eta the framed top (n, 0) form; tau
conjugates coefficients, so A_phi is conjugate-linear.  Its adjoint for the
real part of the hermitian metric strips eta back off after applying tau and
transposes the conjugated matrix.

When n is odd these maps exchange the chiral halves, and the symbol-level
cancellation

    symbol_D_star(gamma) o A_phi + A_phi^* o symbol_D(gamma) = 0

holds exactly for symmetric phi when n = 1 mod 4 and antisymmetric phi when
n = 3 mod 4.  `concentrating_defect` measures the worst basis-vector norm of
that sum, in closed form: two form images and three inner products per
monomial of S+, whatever the rank; whether it is zero is decided exactly.
`defect_vanishes` decides only that, from the same per-monomial values,
and stops at the first nonzero one: a wrong-class draw usually ends at the
first monomial.  Its answer is `concentrating_defect(...) == 0.0`, since
a nonzero squared norm is a positive real that `real_to_float` never
rounds to 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clifford import EVEN, ODD, Spinor, _chirality_keys, _flip, clifford
from .fiber import (
    ChiralityError,
    Covector,
    DegreeError,
    FiberContext,
    Form,
    _monomial,
    _rng,
    _same_ctx,
    _strip_top,
    inner,
    random_scalar,
    random_unit_scalar,
    wedge,
    zero_form,
)
from .hodge import tau_graded
from .scalars import (
    ExactComplex,
    _conj,
    _dot_conj,
    _make,
    conj,
    is_zero,
    real_to_float,
)

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"
GENERAL = "general"


@dataclass(frozen=True)
class PhiMap:
    """Matrix of phi: E -> K (x) E^* in unitary frames, with a declared
    symmetry class and a unit scalar framing K."""

    ctx: FiberContext
    r: int
    entries: tuple
    eta_scalar: object = 1
    declared_class: str = GENERAL

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("rank must be >= 1")
        if self.declared_class not in (SYMMETRIC, ANTISYMMETRIC, GENERAL):
            raise ValueError(f"unknown symmetry class {self.declared_class!r}")
        rows = tuple(tuple(self.ctx.coerce(x) for x in row) for row in self.entries)
        if len(rows) != self.r or any(len(row) != self.r for row in rows):
            raise ValueError(f"entries must be {self.r}x{self.r}")
        object.__setattr__(self, "entries", rows)
        u = self.ctx.coerce(self.eta_scalar)
        object.__setattr__(self, "eta_scalar", u)
        if u * conj(u) != 1:
            raise ValueError("eta scalar must have modulus exactly 1")
        for i in range(self.r):
            for j in range(i, self.r):
                a, b = rows[i][j], rows[j][i]
                if self.declared_class == SYMMETRIC and a != b:
                    raise ValueError(f"not symmetric at ({i}, {j})")
                if self.declared_class == ANTISYMMETRIC and a != -b:
                    raise ValueError(f"not antisymmetric at ({i}, {j})")

    def is_zero(self) -> bool:
        return all(is_zero(x) for row in self.entries for x in row)

    def eta(self) -> Form:
        """The framed top (n, 0) form."""
        return _monomial(self.ctx, (1 << self.ctx.n) - 1, 0, self.eta_scalar._t)


@dataclass(frozen=True)
class SingularVerdict:
    det_value: object
    is_singular: bool


def _require_odd(ctx: FiberContext):
    if ctx.n % 2 == 0:
        raise DegreeError(
            "chirality exchange needs odd complex dimension "
            "(real dimension 2 or 6 mod 8)")


def _check_spinor(phi: PhiMap, z: Spinor):
    _same_ctx(phi.ctx, z.ctx)
    if z.rank != phi.r:
        raise ValueError(f"rank mismatch: phi {phi.r}, spinor {z.rank}")
    if z.chirality not in (EVEN, ODD):
        raise ChiralityError("perturbation needs a pure-chirality spinor")


def _adjoint_unit(phi: PhiMap) -> ExactComplex:
    """(-1)^n conj(u) for the framing scalar u of eta; the (-1)^n factor
    comes from the adjoint of tau."""
    ubar = conj(phi.eta_scalar)
    return -ubar if phi.ctx.n % 2 else ubar


def _A_slot(eta: Form, f: Form) -> Form:
    """A on one slot before its matrix: tau(eta ^ f)."""
    return tau_graded(wedge(eta, f))


def _A_adjoint_slot(ubar, f: Form) -> Form:
    """A* on one slot before its matrix: ubar strip_top(tau f), with
    ubar = _adjoint_unit(phi)."""
    return _strip_top(tau_graded(f)).scale(ubar)


def apply_A(phi: PhiMap, z: Spinor) -> Spinor:
    """Conjugate-linear perturbation; exchanges the chiral halves."""
    _require_odd(phi.ctx)
    _check_spinor(phi, z)
    eta = phi.eta()
    images = [_A_slot(eta, f) for f in z.parts]
    out = [sum((f.scale(conj(c)) for c, f in zip(row, images)), zero_form(phi.ctx))
           for row in phi.entries]
    return Spinor(phi.ctx, out, chirality=_flip(z.chirality))


def apply_A_adjoint(phi: PhiMap, z: Spinor) -> Spinor:
    """Adjoint of apply_A for the real part of the hermitian metric:
    Re<A x, y> = Re<x, A* y> for all opposite-chirality pairs."""
    _require_odd(phi.ctx)
    _check_spinor(phi, z)
    ubar = _adjoint_unit(phi)
    stripped = [_A_adjoint_slot(ubar, f) for f in z.parts]
    out = [sum((f.scale(conj(row[i])) for row, f in zip(phi.entries, stripped)),
               zero_form(phi.ctx))
           for i in range(phi.r)]
    return Spinor(phi.ctx, out, chirality=_flip(z.chirality))


def _defect_norms_sq_iter(phi: PhiMap, g: Covector):
    """Generator of the exact squared norm of the image of each basis spinor
    of S+ (x) E, in spinor_basis(ctx, r, EVEN) order (the monomials of
    ``_chirality_keys``, the E index fastest); see
    concentrating_defect.  The dimension and the contexts are checked here,
    before the generator is made, so a bad call raises at once.

    Per basis monomial e_J it builds F_J and G_J and takes three inner
    products; the r values of that monomial follow from them, so a consumer
    that stops early builds no later image.  Each weight col_j, row_j,
    mix_j and each value is one exact sum, ``scalars._dot_conj``.

    |F_J|^2 and |G_J|^2 are computed, not taken as |gamma|^2, although a
    correct tau and Clifford action make both equal to it.  With that
    shortcut the symmetric-class defect would read
    2 col_j (|gamma|^2 + Re <F_J, G_J>), and a broken kernel with
    F_J = -G_J + v, v orthogonal to G_J and nonzero, would read exactly 0
    where the true defect is col_j |v|^2."""
    _require_odd(phi.ctx)
    _same_ctx(phi.ctx, g.ctx)
    ctx, r, n = phi.ctx, phi.r, phi.ctx.n
    # col_j = sum_i |phi_ij|^2, row_j = sum_i |phi_ji|^2 and
    # mix_j = sum_i conj(phi_ij) phi_ji
    t = [[x._t for x in row] for row in phi.entries]
    weights = []
    for j in range(r):
        col = _dot_conj((t[i][j], t[i][j]) for i in range(r))
        row = _dot_conj((t[j][i], t[j][i]) for i in range(r))
        mix = _dot_conj((t[j][i], t[i][j]) for i in range(r))
        weights.append((col, row, mix, _conj(mix)))
    eta = phi.eta()
    ubar = _adjoint_unit(phi)

    def norms_sq():
        for tj in _chirality_keys(n, EVEN):
            mono = _monomial(ctx, 0, tj)
            f = clifford(g, _A_slot(eta, mono))
            h = _A_adjoint_slot(ubar, clifford(g, mono))
            ff, hh, fh = inner(f, f)._t, inner(h, h)._t, inner(f, h)._t
            fhbar = _conj(fh)
            for col, row, mix, mixbar in weights:
                # col |F|^2 + row |G|^2 + mix <F, G> + conj(mix <F, G>);
                # _dot_conj conjugates each second entry, and |F|^2 and
                # |G|^2 are real, so each is its own conjugate
                yield _make(_dot_conj(((col, ff), (row, hh), (mix, fhbar),
                                       (mixbar, fh))))

    return norms_sq()


def concentrating_defect(phi: PhiMap, g: Covector) -> float:
    """Worst basis-vector norm of symbol_D_star(gamma) A + A* symbol_D(gamma)
    over the standard basis of S+ (x) E.

    The basis spinor with the monomial e_J in slot j and zero elsewhere has
    image conj(phi_ij) F_J + conj(phi_ji) G_J in slot i, where

        F_J = c(gamma) _A_slot(e_J) = c(gamma) tau(eta ^ e_J)
        G_J = _A_adjoint_slot(c(gamma) e_J)
            = (-1)^n conj(u) strip_top(tau(c(gamma) e_J)),

    since the symbols act slot by slot, c(gamma) is complex-linear and A, A*
    are the slot maps under the matrix formulas above, the ones apply_A and
    apply_A_adjoint use.  Summed over i, its squared norm is

        col_j |F_J|^2 + row_j |G_J|^2 + 2 Re(mix_j <F_J, G_J>),

    col_j = sum_i |phi_ij|^2, row_j = sum_i |phi_ji|^2 and
    mix_j = sum_i conj(phi_ij) phi_ji, so no form is built per slot pair.

    Exactly 0.0 when the class matches the dimension (symmetric for
    n = 1 mod 4, antisymmetric for n = 3 mod 4): a symmetric phi has
    mix_j = col_j = row_j and squared norm col_j |F_J + G_J|^2, an
    antisymmetric one mix_j = -col_j and col_j |F_J - G_J|^2, so a class
    cancels for every phi exactly when F_J = -+ G_J for all J and gamma.
    The zero test is exact, and real_to_float has no cancellation, so a
    nonzero defect never returns 0.0.  This evaluates every basis image;
    defect_vanishes stops at the first nonzero one."""
    nsqs = list(_defect_norms_sq_iter(phi, g))
    if not any(nsqs):
        return 0.0
    return max(map(real_to_float, nsqs)) ** 0.5


def defect_vanishes(phi: PhiMap, g: Covector) -> bool:
    """Whether symbol_D_star(gamma) A + A* symbol_D(gamma) is exactly zero
    on S+ (x) E: the same exact values as concentrating_defect, in the same
    order, stopping at the first nonzero one, so a wrong-class draw
    usually builds only the images of the first basis monomial.

    It equals concentrating_defect(phi, g) == 0.0: each value is a squared
    norm, so a nonzero one is a positive real, and real_to_float has no
    cancellation, so the float defect is > 0.0 exactly when some value is
    nonzero."""
    return not any(_defect_norms_sq_iter(phi, g))


def _exact_det(rows):
    """Exact determinant by Gaussian elimination over Q(i, sqrt2)."""
    n = len(rows)
    m = [list(r) for r in rows]
    det = ExactComplex(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if not is_zero(m[r][col])), None)
        if pivot is None:
            return ExactComplex(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        pv = m[col][col]
        det = det * pv
        inv = pv.inverse()
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if is_zero(factor):
                continue
            for c in range(col, n):
                m[r][c] = m[r][c] - factor * m[col][c]
    return det


def singular_verdict(phi: PhiMap) -> SingularVerdict:
    """Exact det(phi_ij) and whether the fiber map is singular."""
    det = _exact_det(phi.entries)
    return SingularVerdict(det, is_zero(det))


def random_phi(ctx: FiberContext, r: int, symmetry: str, seed) -> PhiMap:
    """Random PhiMap of the declared class, with small rational entries and
    a random unit scalar framing K."""
    rng = _rng(seed)
    entries = [[ctx.zero for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            c = random_scalar(ctx, rng)
            if symmetry == SYMMETRIC:
                entries[i][j] = c
                entries[j][i] = c
            elif symmetry == ANTISYMMETRIC:
                if i == j:
                    continue
                entries[i][j] = c
                entries[j][i] = -c
            else:
                entries[i][j] = c
                if i != j:
                    entries[j][i] = random_scalar(ctx, rng)
    return PhiMap(ctx, r, tuple(tuple(row) for row in entries),
                  eta_scalar=random_unit_scalar(ctx, rng), declared_class=symmetry)


def random_nonzero_phi(ctx: FiberContext, r: int, symmetry: str, rng) -> PhiMap:
    rng = _rng(rng)
    if symmetry == ANTISYMMETRIC and r == 1:
        raise ValueError("antisymmetric 1x1 maps are identically zero")
    while True:
        phi = random_phi(ctx, r, symmetry, rng)
        if not phi.is_zero():
            return phi


def matched_class(n: int) -> str:
    """Symmetry class that cancels the defect in complex dimension n."""
    if n % 2 == 0:
        raise DegreeError("no chirality exchange in even complex dimension")
    return SYMMETRIC if n % 4 == 1 else ANTISYMMETRIC


def opposite_class(n: int) -> str:
    return ANTISYMMETRIC if matched_class(n) == SYMMETRIC else SYMMETRIC

"""Reference constructions that only the tests use.

``example_phi`` builds the standard nondegenerate pairings of the fiber
calculus as ``PhiMap``s, ``random_spinor`` a random spinor of one
chirality, ``conjugate`` the structural conjugate of a form and
``eager_defect_norms_sq`` the per-basis-vector squared norms of the
concentrating defect, all weights first; the commands never call them,
so they live beside the tests that use them, written on the public API.  ``split_key`` reads the private key layout of
a ``Form``'s stored terms, for the tests that check the kernels term by
term.
"""

import random

from cldirac import (
    ANTISYMMETRIC,
    EVEN,
    ODD,
    SYMMETRIC,
    ChiralityError,
    Covector,
    FiberContext,
    Form,
    PhiMap,
    Spinor,
    clifford,
    inner,
    random_form,
    spinor_basis,
    tau_graded,
    wedge,
    zero_form,
)


def example_phi(ctx: FiberContext, kind: str, w: int | None = None) -> PhiMap:
    """Standard nondegenerate pairings as PhiMaps.

    trace_pairing(w):     (A, B) -> tr(AB) on End(C^w); symmetric, r = w^2.
    symplectic_double(w): canonical pairing on W (+) W^*; antisymmetric, r = 2w.
    metric_gc:            complex-bilinear metric on the complexified tangent
                          fiber in the unitary frame; symmetric, r = 2n.
    omega_c:              g_C(u, Jv) on the same frame; antisymmetric, r = 2n.
    """
    one, zero, i = ctx.one, ctx.zero, ctx.i
    if kind == "trace_pairing":
        if w is None or w < 1:
            raise ValueError("trace_pairing needs a rank parameter w >= 1")
        r = w * w
        idx = [(a, b) for a in range(w) for b in range(w)]
        entries = tuple(
            tuple(one if (b == c and a == d) else zero for (c, d) in idx)
            for (a, b) in idx)
        return PhiMap(ctx, r, entries, declared_class=SYMMETRIC)
    if kind == "symplectic_double":
        if w is None or w < 1:
            raise ValueError("symplectic_double needs a rank parameter w >= 1")
        r = 2 * w
        entries = [[zero] * r for _ in range(r)]
        for a in range(w):
            entries[a][w + a] = one
            entries[w + a][a] = -one
        return PhiMap(ctx, r, tuple(tuple(row) for row in entries),
                      declared_class=ANTISYMMETRIC)
    if kind == "metric_gc":
        if w is not None:
            raise ValueError("metric_gc takes its rank from the context")
        n = ctx.n
        r = 2 * n
        entries = [[zero] * r for _ in range(r)]
        for a in range(n):
            entries[a][n + a] = one
            entries[n + a][a] = one
        return PhiMap(ctx, r, tuple(tuple(row) for row in entries),
                      declared_class=SYMMETRIC)
    if kind == "omega_c":
        if w is not None:
            raise ValueError("omega_c takes its rank from the context")
        n = ctx.n
        r = 2 * n
        entries = [[zero] * r for _ in range(r)]
        for a in range(n):
            entries[a][n + a] = -i
            entries[n + a][a] = i
        return PhiMap(ctx, r, tuple(tuple(row) for row in entries),
                      declared_class=ANTISYMMETRIC)
    raise ValueError(f"unknown example kind {kind!r}")


def random_spinor(ctx: FiberContext, r: int, chirality: str, seed) -> Spinor:
    """Random spinor of rank r in S+ (even) or S- (odd): each of its r parts
    sums random_form(ctx, 0, q) over the q of that parity, all drawn from
    one generator, so it is deterministic in seed (an int or a Random)."""
    if chirality not in (EVEN, ODD):
        raise ChiralityError("random spinor needs chirality 'even' or 'odd'")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    rem = 0 if chirality == EVEN else 1
    parts = []
    for _ in range(r):
        f = zero_form(ctx)
        for q in range(rem, ctx.n + 1, 2):
            f = f + random_form(ctx, 0, q, rng)
        parts.append(f)
    return Spinor(ctx, parts, chirality=chirality)


def conjugate(x: Form) -> Form:
    """Structural conjugation th <-> thb with conjugated coefficients:
    conj(c th^I ^ thb^J) = conj(c) thb^I ^ th^J
    = (-1)^(|I| |J|) conj(c) th^J ^ thb^I."""
    return Form(x.ctx, {(tj, ti): c.conjugate() * (-1) ** (len(ti) * len(tj))
                        for (ti, tj), c in x.items()})


def eager_defect_norms_sq(phi: PhiMap, g: Covector) -> list:
    """The values of ``perturbation._defect_norms_sq_iter``, in its order,
    with every weight made before the first value:

        col_j = sum_i |phi_ij|^2, row_j = sum_i |phi_ji|^2,
        mix_j = sum_i conj(phi_ij) phi_ji

    for every j, then for each monomial e_J of S+ (the order of
    ``spinor_basis``) the images F_J = c(gamma) tau(eta ^ e_J) and
    G_J = (-1)^n conj(u) tau(c(gamma) e_J) / th^top, and the r values
    col_j |F_J|^2 + row_j |G_J|^2 + 2 Re(mix_j <F_J, G_J>)."""
    ctx, r, n = phi.ctx, phi.r, phi.ctx.n
    e = phi.entries

    def total(values):
        return sum(values, ctx.zero)

    weights = [(total(e[i][j] * e[i][j].conjugate() for i in range(r)),
                total(e[j][i] * e[j][i].conjugate() for i in range(r)),
                total(e[i][j].conjugate() * e[j][i] for i in range(r)))
               for j in range(r)]
    ubar = phi.eta_scalar.conjugate()
    if n % 2:
        ubar = -ubar
    top = tuple(range(1, n + 1))
    out = []
    for z in spinor_basis(ctx, 1, EVEN):
        mono = z.parts[0]
        f = clifford(g, tau_graded(wedge(phi.eta(), mono)))
        terms = tau_graded(clifford(g, mono)).items()
        assert all(ti == top for (ti, _), _ in terms)
        h = Form(ctx, {((), tj): c * ubar for (_, tj), c in terms})
        ff, hh, fh = inner(f, f), inner(h, h), inner(f, h)
        for col, row, mix in weights:
            w = mix * fh
            out.append(col * ff + row * hh + w + w.conjugate())
    return out


def split_key(key: int, n: int) -> tuple:
    """The half-keys (I, J) of the stored key of th^I ^ thb^J on the fiber
    C^n: the key is one int, bit i-1 for th^i and bit n+j-1 for thb^j."""
    return key & ((1 << n) - 1), key >> n

"""Reference constructions that only the tests use.

``example_phi`` builds the standard nondegenerate pairings of the fiber
calculus as ``PhiMap``s; the commands never call it, so it lives beside the
tests that check it.  ``split_key`` reads the private key layout of a
``Form``'s stored terms, for the tests that check the kernels term by term.
"""

from cldirac import ANTISYMMETRIC, SYMMETRIC, FiberContext, PhiMap


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


def split_key(key: int, n: int) -> tuple:
    """The half-keys (I, J) of the stored key of th^I ^ thb^J on the fiber
    C^n: the key is one int, bit i-1 for th^i and bit n+j-1 for thb^j."""
    return key & ((1 << n) - 1), key >> n

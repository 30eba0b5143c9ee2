"""Clifford action on antiholomorphic forms, spinors, and symbol operators.

The spinor space of the fiber is S = Lambda^{0,*} with chiral halves
S+ = even and S- = odd antiholomorphic degree.  Clifford multiplication by a
real covector gamma is

    c(gamma) x = sqrt2 * (gamma^{0,1} ^ x  -  contract(gamma^{1,0}, x)),

computed by the fiber kernel `clifford` in one pass over the terms of x.
It flips chirality, is skew-adjoint, and squares to -|gamma|^2.  The
sqrt2 factor lives in the formal sqrt2 slot of the scalar tower, so these
relations hold with exactly zero defect.

Spinors with values in a rank-r twisting bundle are vectors of r forms in a
unitary frame.  Symbol operators wrap c(gamma) (x) Id as chirality-labelled
real-linear maps; the symbols of the operator and of its adjoint share the
same formula.

The public Spinor(ctx, parts, chirality) checks its parts and infers or
checks the chirality.  The constructions whose parity this module fixes
itself trust it and check nothing: a basis spinor of spinor_basis, the
image of a symbol (its target chirality, since c(gamma) flips the parity
of a (0, q) form), Spinor.scale, and the sum of two EVEN or two ODD
spinors.  A sum of two MIXED spinors can cancel to one parity, so it still
goes through the check and raises as before.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

from .fiber import (
    ChiralityError,
    Covector,
    DegreeError,
    FiberContext,
    Form,
    _monomial,
    _rng,
    _same_ctx,
    _subset_keys,
    clifford,
    inner,
    random_form,
    zero_form,
)

EVEN = "even"
ODD = "odd"
MIXED = "mixed"


def _flip(chirality: str) -> str:
    return {EVEN: ODD, ODD: EVEN, MIXED: MIXED}[chirality]


class Spinor:
    """Element of S (x) E: one antiholomorphic form per E-frame index."""

    __slots__ = ("ctx", "parts", "chirality")

    def __init__(self, ctx: FiberContext, parts, chirality: str | None = None):
        parts = tuple(parts)
        if not parts:
            raise ValueError("spinor needs rank >= 1")
        parities = set()
        for f in parts:
            if not isinstance(f, Form):
                raise TypeError("spinor parts must be Forms")
            _same_ctx(ctx, f.ctx)
            for p, q in f.bidegrees():
                if p:
                    raise DegreeError("spinor parts must be (0, q) forms")
                parities.add(q % 2)
        inferred = None
        if len(parities) == 1:
            inferred = EVEN if parities.pop() == 0 else ODD
        elif len(parities) == 2:
            inferred = MIXED
        if chirality is None:
            if inferred is None:
                raise ChiralityError("zero spinor needs an explicit chirality")
            chirality = inferred
        else:
            if chirality not in (EVEN, ODD, MIXED):
                raise ChiralityError(f"unknown chirality {chirality!r}")
            if inferred is not None and inferred != chirality:
                raise ChiralityError(
                    f"declared chirality {chirality} but terms are {inferred}")
        self.ctx = ctx
        self.parts = parts
        self.chirality = chirality

    @classmethod
    def _trusted(cls, ctx: FiberContext, parts: tuple, chirality: str) -> "Spinor":
        """Spinor of a tuple of (0, q) Forms of ctx whose parity is
        chirality by construction; nothing is checked."""
        z = object.__new__(cls)
        z.ctx = ctx
        z.parts = parts
        z.chirality = chirality
        return z

    @property
    def rank(self) -> int:
        return len(self.parts)

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.parts)

    def __add__(self, other):
        if not isinstance(other, Spinor):
            return NotImplemented
        _same_ctx(self.ctx, other.ctx)
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        parts = tuple(a + b for a, b in zip(self.parts, other.parts))
        if self.chirality == other.chirality != MIXED:
            return Spinor._trusted(self.ctx, parts, self.chirality)
        chir = self.chirality if self.chirality == other.chirality else None
        return Spinor(self.ctx, parts, chirality=chir)

    def __sub__(self, other):
        if not isinstance(other, Spinor):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c):
        return Spinor._trusted(self.ctx, tuple(f.scale(c) for f in self.parts),
                               self.chirality)

    def inner(self, other: "Spinor"):
        _same_ctx(self.ctx, other.ctx)
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        acc = self.ctx.zero
        for a, b in zip(self.parts, other.parts):
            acc = acc + inner(a, b)
        return acc

    def norm_sq(self):
        return self.inner(self)

    def __eq__(self, other):
        if not isinstance(other, Spinor):
            return NotImplemented
        return (self.ctx == other.ctx and self.chirality == other.chirality
                and self.parts == other.parts)

    __hash__ = None

    def text(self) -> str:
        return " (+) ".join(f.text() for f in self.parts)

    def __repr__(self):
        return f"Spinor[{self.chirality}]({self.text()})"


@functools.cache
def _chirality_keys(n: int, chirality: str) -> tuple:
    """Half-keys of the antiholomorphic multi-indices J of one parity, the
    monomials thb^J of S+ (even) or S- (odd), in graded-lex order: by
    |J|, then as ``fiber._subset_keys`` lists each degree."""
    rem = 0 if chirality == EVEN else 1
    return tuple(tj for q in range(rem, n + 1, 2) for tj in _subset_keys(n, q))


def spinor_basis(ctx: FiberContext, r: int, chirality: str):
    """Orthonormal basis of S+/- (x) E; multi-indices graded-lex
    (``_chirality_keys``), the E index fastest."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    if chirality not in (EVEN, ODD):
        raise ChiralityError("basis needs chirality 'even' or 'odd'")
    zero = zero_form(ctx)
    basis = []
    for tj in _chirality_keys(ctx.n, chirality):
        mono = _monomial(ctx, 0, tj)
        for j in range(r):
            parts = (zero,) * j + (mono,) + (zero,) * (r - 1 - j)
            basis.append(Spinor._trusted(ctx, parts, chirality))
    return basis


def random_spinor(ctx: FiberContext, r: int, chirality: str, seed) -> Spinor:
    if chirality not in (EVEN, ODD):
        raise ChiralityError("random spinor needs chirality 'even' or 'odd'")
    rng = _rng(seed)
    rem = 0 if chirality == EVEN else 1
    parts = []
    for _ in range(r):
        f = zero_form(ctx)
        for q in range(rem, ctx.n + 1, 2):
            f = f + random_form(ctx, 0, q, rng)
        parts.append(f)
    return Spinor(ctx, parts, chirality=chirality)


@dataclass(frozen=True)
class SymbolOperator:
    """Chirality-labelled real-linear operator on spinors."""

    ctx: FiberContext
    rank: int
    source: str
    target: str
    fn: Callable[[Spinor], Spinor] = field(repr=False)
    name: str = ""

    def __call__(self, z: Spinor) -> Spinor:
        _same_ctx(self.ctx, z.ctx)
        if z.rank != self.rank:
            raise ValueError(f"rank mismatch: operator {self.rank}, spinor {z.rank}")
        if z.chirality != self.source:
            raise ChiralityError(
                f"{self.name or 'operator'} expects {self.source} input, "
                f"got {z.chirality}")
        return self.fn(z)

    def compose(self, first: "SymbolOperator") -> "SymbolOperator":
        """self after first; chirality labels must chain."""
        if first.target != self.source:
            raise ChiralityError(
                f"cannot compose: {first.name or 'first'} targets "
                f"{first.target}, {self.name or 'second'} expects {self.source}")
        return SymbolOperator(self.ctx, self.rank, first.source, self.target,
                              lambda z: self(first(z)),
                              name=f"{self.name}.{first.name}")


def symbol(g: Covector, r: int, which: str) -> SymbolOperator:
    """Principal symbol c(gamma) (x) Id of the twisted Dirac operator
    ('D': S+ -> S-) or of its adjoint ('D_star': S- -> S+); both use the
    same Clifford formula."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    if which == "D":
        source, target = EVEN, ODD
    elif which == "D_star":
        source, target = ODD, EVEN
    else:
        raise ValueError("which must be 'D' or 'D_star'")

    def fn(z: Spinor) -> Spinor:
        parts = tuple(clifford(g, f) for f in z.parts)
        if z.chirality == source:
            return Spinor._trusted(z.ctx, parts, target)
        # reached only by calling fn directly, past __call__'s check
        return Spinor(z.ctx, parts, chirality=target)

    return SymbolOperator(g.ctx, r, source, target, fn, name=f"symbol_{which}")

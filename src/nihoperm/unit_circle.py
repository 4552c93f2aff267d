"""The unit circle of GF(2^(2m)): the (2^m + 1)-th roots of unity.

U = {x : x^(2^m + 1) = 1} is the kernel of the relative norm onto GF(2^m).
Every nonzero x factors uniquely as x = lam * y with lam on the circle and
y generating the "radial" part: y is the square root of the norm x^(2^m + 1).
Permutation questions about Niho-exponent polynomials on the whole field
reduce to counting solutions on U, which has only 2^m + 1 points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import gcd

from .gf2n import FieldCtx


@dataclass(frozen=True)
class UnitCircle:
    """The cyclic group U of order 2^m + 1, materialized as generator powers.

    ``elements[i]`` is generator**i, so index arithmetic mod the order is
    discrete-log arithmetic on U.
    """

    ctx: FieldCtx
    generator: int
    elements: tuple

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def index(self) -> dict:
        """element -> its discrete log base the generator."""
        return {x: i for i, x in enumerate(self.elements)}

    def __contains__(self, x: int) -> bool:
        return x in self.index


@cache
def build_unit_circle(ctx: FieldCtx) -> UnitCircle:
    """Materialize U = {x : x^(2^m + 1) = 1} as powers of a fixed generator, once per field
    (cached by the ctx, equal by value): callers share it and, by ``circle.ctx``, its tables."""
    g = ctx.pow(ctx.primitive, 2**ctx.m - 1)
    pts = ctx.powers([g], 2**ctx.m + 1, [1])[0]
    return UnitCircle(ctx=ctx, generator=g, elements=tuple(pts.tolist()))


def power_subgroup(circle: UnitCircle, r: int) -> list:
    """U^r = {u^r : u in U}, the subgroup of index gcd(r, |U|)."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    d = gcd(r, circle.order)
    return [circle.elements[i] for i in range(0, circle.order, d)]


def complement_coset(circle: UnitCircle, r: int) -> list:
    """U \\ U^r: the elements that are not r-th powers on the circle."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    d = gcd(r, circle.order)
    return [x for i, x in enumerate(circle.elements) if i % d != 0]


def polar_decompose(ctx: FieldCtx, x: int) -> tuple:
    """Split nonzero x as (lam, y) with lam in U and y = sqrt(x^(2^m + 1)).

    y is computed as x**((2^m + 1) * 2^(n - 1)) -- the square root of the
    norm -- and lam = x / y closes the factorization x = lam * y.
    """
    if x == 0:
        raise ValueError("0 has no polar decomposition")
    k = (2**ctx.m + 1) * 2 ** (ctx.n - 1) % ctx.mult_order
    y = ctx.pow(x, k)
    lam = ctx.mul(x, ctx.inv(y))
    return lam, y

"""Unit-circle subgroup, its power subgroups, and the polar decomposition.

The circle is cross-checked against a brute-force filter of the whole
multiplicative group; the decomposition is checked to be a bijection
F_{2^n}* -> F_{2^m}* x U by reassembling every element.
"""

import random
from math import gcd

import pytest

from nihoperm.gf2n import field_new
from nihoperm.unit_circle import (
    build_unit_circle,
    complement_coset,
    polar_decompose,
    power_subgroup,
)


@pytest.fixture(scope="module", params=[4, 6, 8, 10])
def ctx(request):
    return field_new(request.param)


@pytest.fixture(scope="module")
def circle(ctx):
    return build_unit_circle(ctx)


def test_order_and_uniqueness(ctx, circle):
    m = ctx.n // 2
    assert circle.order == 2**m + 1
    assert len(set(circle.elements)) == circle.order
    assert circle.elements[0] == 1


def test_matches_brute_force_filter(ctx, circle):
    m = ctx.n // 2
    want = {x for x in range(1, ctx.order) if ctx.pow(x, 2**m + 1) == 1}
    assert set(circle.elements) == want


def test_elements_are_generator_powers_at_n20():
    ctx = field_new(20)
    circle = build_unit_circle(ctx)
    assert circle.order == 2**10 + 1
    assert all(type(x) is int for x in circle.elements)
    for i in [0, 1, 2, 511, 512, 513, 1023, 1024] + random.Random(2020).sample(range(1025), 24):
        assert circle.elements[i] == ctx.pow(circle.generator, i)


def test_each_field_has_one_circle():
    # field_new builds a new ctx on every call; equal fields share the circle and its tables
    for n in (6, 20):
        assert build_unit_circle(field_new(n)) is build_unit_circle(field_new(n))


def test_generator_has_full_order(ctx, circle):
    g = circle.generator
    assert ctx.pow(g, circle.order) == 1
    for i in range(1, circle.order):
        assert ctx.pow(g, i) != 1 or i == circle.order


def test_closure_under_multiplication_and_inverse(ctx, circle):
    els = circle.elements
    for a in els[: min(8, len(els))]:
        assert ctx.inv(a) in circle
        for b in els:
            assert ctx.mul(a, b) in circle


def test_membership_and_index(ctx, circle):
    for i, x in enumerate(circle.elements):
        assert x in circle
        assert circle.index[x] == i
    assert 0 not in circle
    # an element of F_{2^m}* other than 1 is never on the circle
    m = ctx.n // 2
    if m > 1:
        w = ctx.pow(ctx.primitive, (2**m + 1))  # generates F_{2^m}*
        assert ctx.pow(w, 2**m - 1) == 1
        if w != 1:
            assert w not in circle


def test_power_subgroup_sets(ctx, circle):
    M = circle.order
    for r in (1, 2, 3, 5, M):
        sub = power_subgroup(circle, r)
        want = {ctx.pow(x, r) for x in circle.elements}
        assert set(sub) == want
        assert len(sub) == M // gcd(r, M)
        # deterministic ordering: as produced by stepping the generator
        assert list(sub) == sorted(sub, key=circle.index.__getitem__)


def test_complement_coset_partitions(ctx, circle):
    M = circle.order
    for r in (3, 5, 11):
        sub = set(power_subgroup(circle, r))
        comp = complement_coset(circle, r)
        assert sub.isdisjoint(comp)
        assert sub | set(comp) == set(circle.elements)
        assert len(comp) == M - len(sub)


def test_power_subgroup_validation(circle):
    with pytest.raises(ValueError):
        power_subgroup(circle, 0)
    with pytest.raises(ValueError):
        power_subgroup(circle, -2)


def test_complement_coset_validation(circle):
    with pytest.raises(ValueError, match="r must be >= 1"):
        complement_coset(circle, 0)


def test_polar_decompose_reassembles(ctx, circle):
    m = ctx.n // 2
    sub_order = 2**m - 1
    for x in range(1, ctx.order):
        lam, y = polar_decompose(ctx, x)
        assert ctx.mul(lam, y) == x
        assert lam in circle
        assert y != 0 and ctx.pow(y, sub_order) == 1  # y in F_{2^m}*


def test_polar_decompose_is_injective(ctx):
    seen = set()
    for x in range(1, ctx.order):
        seen.add(polar_decompose(ctx, x))
    assert len(seen) == ctx.order - 1


def test_polar_decompose_rejects_zero(ctx):
    with pytest.raises(ValueError):
        polar_decompose(ctx, 0)


def test_polar_decompose_fixes_circle_and_subfield(ctx, circle):
    m = ctx.n // 2
    for u in circle.elements:
        assert polar_decompose(ctx, u) == (u, 1)
    w = ctx.pow(ctx.primitive, 2**m + 1)
    y = 1
    for _ in range(2**m - 1):
        assert polar_decompose(ctx, y) == (1, y)
        y = ctx.mul(y, w)

"""Property tests of the engines on random sparse input.

The niho path, the direct delta path and ``brute`` must agree on every
polynomial whose exponents are congruent mod 2^m - 1, with equal witnesses
on failure.  ``count_unit_circle_solutions`` is checked against a scalar
count over the circle points, which shares no code with the engines.  On
general input (exponents not all congruent), ``charsum``, the direct delta
path and ``brute`` must agree, and a charsum witness must be the first gamma
whose ``char_sum`` is nonzero.  Every failing witness is also checked on its
own terms: a ``brute`` pair collides under ``SparsePoly.eval``, and a delta
gives a delta polynomial, built here from its definition, with a nonzero
``char_sum`` (on the niho path, also a circle count other than 1).

These run at n <= 10, inside one block of the walk.  A smaller property,
``test_engines_agree_across_the_walk_seam``, takes the same checks to
n = 12, 14 (the one-block edge) and 16 (stepped blocks), and to a field
built by hand with another modulus.
"""

from math import gcd

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from nihoperm.gf2n import FieldCtx, SparsePoly, field_new
from nihoperm.spectra import (
    char_sum,
    count_unit_circle_solutions,
    is_permutation_brute,
    is_pp_charsum,
    is_pp_delta_criterion,
)
from nihoperm.unit_circle import build_unit_circle

CIRCLES = {n: build_unit_circle(field_new(n)) for n in (4, 6, 8, 10)}

PROPERTY = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def coefficient(n):
    """A nonzero coefficient, on the unit circle or anywhere in the field."""
    circle = CIRCLES[n]
    return st.one_of(st.sampled_from(circle.elements), st.integers(1, circle.ctx.order - 1))


@st.composite
def niho_shapes(draw):
    """(n, d1, extra exponents): 1-3 extras congruent to d1 mod 2^m - 1.

    d1 is coprime to 2^n - 1.  Unless ``pivot_first`` is drawn, the lowest
    exponent is one that is not coprime, so the pivot is not the first term.
    """
    n = draw(st.sampled_from(sorted(CIRCLES)))
    ctx = CIRCLES[n].ctx
    step = 2**ctx.m - 1
    d1 = draw(st.sampled_from([d for d in range(1, ctx.order) if gcd(d, ctx.mult_order) == 1]))
    members = [e for e in range(1, ctx.order) if (e - d1) % step == 0 and e != d1]
    leads = [e for e in members if e < d1 and gcd(e, ctx.mult_order) != 1]
    extras = []
    if leads and not draw(st.booleans(), label="pivot_first"):
        extras.append(draw(st.sampled_from(leads)))
        members = [e for e in members if e > extras[0]]
    k = draw(st.integers(1 - len(extras), min(3 - len(extras), len(members))))
    extras += draw(st.permutations(members))[:k]
    return n, d1, extras


@st.composite
def niho_polys(draw):
    n, d1, extras = draw(niho_shapes())
    terms = [(draw(coefficient(n)), e) for e in [d1] + extras]
    return SparsePoly.make(CIRCLES[n].ctx, terms)


def assert_collision(f, witness):
    x1, x2 = witness
    assert x1 < x2 and f.eval(x1) == f.eval(x2)


def delta_poly(f, delta):
    """x^d1 + sum_i (c_i / c1) delta^(d1 - d_i) x^d_i, with c1 x^d1 the first
    term whose exponent is coprime to 2^n - 1.  Its character sum at 1 is
    the delta-criterion sum of f at delta."""
    ctx = f.ctx
    pivot = next(i for i, (_, e) in enumerate(f.terms) if gcd(e, ctx.mult_order) == 1)
    c1, d1 = f.terms[pivot]
    ic1 = ctx.inv(c1)
    rest = [
        (ctx.mul(ctx.mul(c, ic1), ctx.pow(delta, (d1 - d) % ctx.mult_order)), d)
        for i, (c, d) in enumerate(f.terms) if i != pivot
    ]
    return d1, rest, SparsePoly.make(ctx, [(1, d1)] + rest)


def assert_failing_delta(f, delta, circle=False):
    d1, rest, g = delta_poly(f, delta)
    assert char_sum(g, 1) != 0
    if circle:
        ds, ws = [d1] + [d for _, d in rest], [w for w, _ in rest]
        assert count_unit_circle_solutions(f.ctx, ds, ws) != 1


@PROPERTY
@given(niho_polys())
def test_niho_direct_and_brute_agree(f):
    niho = is_pp_delta_criterion(f)
    direct = is_pp_delta_criterion(f, force_direct=True)
    brute = is_permutation_brute(f)
    assert niho.engine == "niho" and direct.engine == "delta_criterion"
    assert niho.verdict == direct.verdict == brute.verdict
    assert niho.witness == direct.witness
    if not brute.verdict:
        assert_collision(f, brute.witness)
        assert_failing_delta(f, niho.witness, circle=True)
        assert_failing_delta(f, direct.witness)


def circle_count_oracle(ctx, circle, d_list, w_list):
    """Scalar count of circle points lam with lam^d1 + sum w_i lam^d_i in GF(2^m)."""
    count = 0
    for lam in circle.elements:
        v = ctx.pow(lam, d_list[0])
        for w, d in zip(w_list, d_list[1:]):
            v ^= ctx.mul(w, ctx.pow(lam, d))
        count += ctx.pow(v, 2**ctx.m) == v
    return count


@PROPERTY
@given(st.data())
def test_circle_count_matches_scalar_oracle(data):
    n, d1, extras = data.draw(niho_shapes())
    circle = CIRCLES[n]
    ctx = circle.ctx
    ws = [data.draw(st.one_of(st.just(0), coefficient(n))) for _ in extras]
    want = circle_count_oracle(ctx, circle, [d1] + extras, ws)
    assert count_unit_circle_solutions(ctx, [d1] + extras, ws) == want


@st.composite
def general_polys(draw):
    """2-4 terms with a pivot exponent coprime to 2^n - 1 and exponents not
    all congruent mod 2^m - 1.  Linearized polynomials (every exponent a
    power of 2) are drawn half the time, because they often permute."""
    n = draw(st.sampled_from(sorted(CIRCLES)))
    ctx = CIRCLES[n].ctx
    if draw(st.booleans(), label="linearized"):
        pool = [2**i for i in range(n)]
    else:
        pool = range(1, ctx.order)
    exps = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=4, unique=True))
    step = 2**ctx.m - 1
    assume(any(gcd(e, ctx.mult_order) == 1 for e in exps))
    assume(any((e - exps[0]) % step for e in exps))
    return SparsePoly.make(ctx, [(draw(coefficient(n)), e) for e in exps])


@PROPERTY
@given(general_polys())
def test_charsum_direct_and_brute_agree(f):
    charsum = is_pp_charsum(f)
    direct = is_pp_delta_criterion(f)
    brute = is_permutation_brute(f)
    assert direct.engine == "delta_criterion"
    assert charsum.verdict == direct.verdict == brute.verdict
    if not charsum.verdict:
        assert_collision(f, brute.witness)
        assert_failing_delta(f, direct.witness)
        gamma = charsum.witness
        assert char_sum(f, gamma) != 0
        assert all(char_sum(f, g) == 0 for g in range(1, gamma))


SEAM_CIRCLES = {ctx: build_unit_circle(ctx)
                for ctx in (field_new(16), field_new(14), field_new(12), FieldCtx(6, 0x61, 0x2))}


@st.composite
def seam_polys(draw):
    """1-3 terms over a field of SEAM_CIRCLES with a pivot d1 coprime to 2^n - 1; the
    others congruent to d1 mod 2^m - 1 (niho), powers of 2 like d1 (linearized), or
    anywhere.  Coefficients lie on the unit circle or anywhere in the field."""
    circle = draw(st.sampled_from(list(SEAM_CIRCLES.values())))
    ctx, kind = circle.ctx, draw(st.sampled_from(["niho", "linearized", "general"]))
    N, step = ctx.mult_order, 2**ctx.m - 1
    if kind == "linearized":
        d1 = draw(st.sampled_from([2**i for i in range(ctx.n)]))
        others = st.integers(0, ctx.n - 1).map(lambda i: 2**i)
    else:
        d1 = draw(st.integers(1, N).filter(lambda d: gcd(d, N) == 1))
        others = st.integers(1, N)
        if kind == "niho":
            others = st.integers(0, 2**ctx.m).map(lambda j: (d1 - 1) % step + 1 + j * step)
    k = 2 - draw(st.integers(0, 2))  # the simplest draw is 3 terms, not a monomial
    exps = draw(st.lists(others.filter(lambda e: e != d1), min_size=k, max_size=k, unique=True))
    coeffs = st.one_of(st.sampled_from(circle.elements), st.integers(1, ctx.order - 1))
    return SparsePoly.make(ctx, [(draw(coeffs), e) for e in [d1] + exps])


@settings(PROPERTY, max_examples=50)
@given(seam_polys())
def test_engines_agree_across_the_walk_seam(f):
    brute = is_permutation_brute(f)
    charsum = is_pp_charsum(f)
    direct = is_pp_delta_criterion(f, force_direct=True)
    default = is_pp_delta_criterion(f)
    assert brute.verdict == charsum.verdict == direct.verdict == default.verdict
    if default.engine == "niho":
        assert default.witness == direct.witness
    if not brute.verdict:
        assert_collision(f, brute.witness)
        assert_failing_delta(f, direct.witness)
        assert_failing_delta(f, default.witness, circle=default.engine == "niho")
        assert char_sum(f, charsum.witness) != 0

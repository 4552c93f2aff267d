"""Cross-checks between the verification engines.

Every engine is tested against an independent reimplementation (sequential
collision scan, scalar character sums) and against the other engines on the
same inputs, including failing inputs where the witnesses must line up with
first-failure semantics.
"""

import random
import sys
import tracemalloc
from functools import cached_property
from math import gcd

import numpy as np
import pytest

from nihoperm.exponents import make_niho
from nihoperm.families import gen_theorem1
from nihoperm.gf2n import FieldCtx, SparsePoly, canonical_exponent, field_new
from nihoperm.spectra import (
    VerificationReport,
    char_sum,
    count_unit_circle_solutions,
    delta_path,
    exp_sum_via_niho,
    is_cpp,
    is_permutation_brute,
    is_pp_charsum,
    is_pp_delta_criterion,
    unique_solution_check,
)
from nihoperm import gf2n, spectra
from nihoperm.unit_circle import build_unit_circle, complement_coset, power_subgroup


@pytest.fixture(scope="module")
def ctx6():
    return field_new(6)


@pytest.fixture(scope="module")
def circle6(ctx6):
    return build_unit_circle(ctx6)


# -- independent oracles -------------------------------------------------------


def collision_oracle(poly):
    """First repeated output of a sequential scan, via scalar evaluation."""
    seen = {}
    for x in range(poly.ctx.order):
        v = poly.eval(x)
        if v in seen:
            return seen[v], x
        seen[v] = x
    return None


def char_sum_oracle(g, gamma):
    ctx = g.ctx
    total = 0
    for x in range(ctx.order):
        total += -1 if ctx.trace(ctx.mul(gamma, g.eval(x))) else 1
    return total


def charsum_loop(g):
    """Per-gamma reference for is_pp_charsum: (verdict, first failing gamma)."""
    ctx = g.ctx
    values = spectra._values_over_domain(g, ctx.domain())
    tb = ctx.trace_bits()
    for gamma in range(1, ctx.order):
        if 2 * int(tb[ctx.scalar_mul_vec(gamma, values)].sum()) != ctx.order:
            return False, gamma
    return True, None


def delta_direct_loop(f):
    """Per-delta reference for the direct delta path: (verdict, first failing
    delta), each sum that of x^d1 + sum_i (c_i / c1) delta^(d1 - d_i) x^d_i."""
    ctx = f.ctx
    pivot = next(i for i, (_, e) in enumerate(f.terms) if gcd(e, ctx.mult_order) == 1)
    c1, d1 = f.terms[pivot]
    ic = ctx.inv(c1)
    rest = [(ctx.mul(c, ic), e) for i, (c, e) in enumerate(f.terms) if i != pivot]
    points = ctx.domain()
    tb = ctx.trace_bits()
    base = ctx.pow_vec(points, d1)
    parts = [ctx.pow_vec(points, e) for _, e in rest]
    # all deltas give the same sum for a monomial
    for delta in range(1, ctx.order) if rest else [1]:
        h = base.copy()
        for (c, e), part in zip(rest, parts):
            w = ctx.mul(c, ctx.pow(delta, (d1 - e) % ctx.mult_order))
            h ^= ctx.scalar_mul_vec(w, part)
        if 2 * int(tb[h].sum()) != ctx.order:
            return False, delta
    return True, None


def random_poly(ctx, rng, max_terms=3):
    k = rng.randint(1, max_terms)
    exps = rng.sample(range(1, ctx.mult_order + 1), k)
    return SparsePoly.make(
        ctx, [(rng.randint(1, ctx.order - 1), e) for e in exps]
    )


# -- reports -------------------------------------------------------------------


def test_report_witness_hex_shapes():
    rep = VerificationReport("brute", None, 0.0, {})
    assert rep.witness_hex() is None and rep.verdict is True
    rep = VerificationReport("charsum", 10, 0.0, {})
    assert rep.witness_hex() == "0xa" and rep.verdict is False
    rep = VerificationReport("brute", (1, 6), 0.0, {})
    assert rep.witness_hex() == "0x1,0x6" and rep.verdict is False


def test_report_to_json_key_order():
    rep = VerificationReport("niho", None, 0.00123, {"n": 6})
    assert list(rep.to_json()) == ["engine", "verdict", "witness", "field"]
    timed = rep.to_json(timing=True)
    assert list(timed) == ["engine", "verdict", "witness", "elapsed_ms", "field"]
    assert timed["elapsed_ms"] == 1.23


def test_report_carries_field_spec(ctx6):
    rep = is_permutation_brute(SparsePoly.make(ctx6, [(1, 1)]))
    assert rep.field == ctx6.field_spec()
    assert rep.elapsed >= 0.0


# -- brute engine --------------------------------------------------------------


def test_brute_accepts_permutation_monomials(ctx6):
    for d in range(1, ctx6.mult_order + 1):
        if gcd(d, ctx6.mult_order) == 1:
            rep = is_permutation_brute(SparsePoly.make(ctx6, [(1, d)]))
            assert rep.verdict and rep.witness is None


def test_brute_known_collision_witness():
    ctx = field_new(4)
    rep = is_permutation_brute(SparsePoly.make(ctx, [(1, 3)]))
    assert not rep.verdict
    assert rep.witness == (0x1, 0x6)  # 1^3 = 6^3 = 1, and no earlier repeat


def test_brute_witness_matches_sequential_scan():
    rng = random.Random(417)
    for n in (4, 6):
        ctx = field_new(n)
        found = 0
        while found < 12:
            f = random_poly(ctx, rng)
            rep = is_permutation_brute(f)
            assert rep.verdict == (collision_oracle(f) is None)
            if not rep.verdict:
                found += 1
                assert rep.witness == collision_oracle(f)
                x1, x2 = rep.witness
                assert x1 < x2 and f.eval(x1) == f.eval(x2)


def test_brute_zero_polynomial():
    ctx = field_new(4)
    rep = is_permutation_brute(SparsePoly.make(ctx, []))
    assert not rep.verdict and rep.witness == (0, 1)


# -- whole-field evaluation in blocks ---------------------------------------------


def unblocked_values(f):
    """sum of c * x^d over the whole domain in one array: the unblocked evaluation."""
    ctx = f.ctx
    values = np.zeros(ctx.order, dtype=np.uint32)
    for c, d in f.terms:
        values ^= ctx.scalar_mul_vec(c, ctx.pow_vec(ctx.domain(), d))
    return values


def four_terms(ctx, rng):
    """x, c x^(2^n - 1) (1 off zero, 0 at zero) and two random terms, coefficients != 1."""
    f = SparsePoly.make(ctx, [(1, 1), (rng.randrange(2, ctx.order), ctx.mult_order)]
                        + [(rng.randrange(2, ctx.order), rng.randrange(2, ctx.order))
                           for _ in range(2)])
    assert len(f.terms) == 4
    return f


def test_values_over_domain_across_block_boundaries():
    B = spectra._BLOCK
    for n in (18, 20):
        ctx = field_new(n)
        assert ctx.mult_order > B
        f = four_terms(ctx, random.Random(1800 + n))
        walk = np.concatenate([*spectra._walk(f)])
        # walk block k holds f at alpha^(kB) .. alpha^(kB + B - 1); check both sides
        # of the first and the last boundary, and the last point alpha^(2^n - 2)
        last = (ctx.mult_order - 1) // B
        exps = [0] + [k * B + j for k in (1, last) for j in (-1, 0)] + [ctx.mult_order - 1]
        for i in exps:
            assert int(walk[i]) == f.eval(ctx.pow(ctx.primitive, i))
        expected = unblocked_values(f)
        assert np.array_equal(walk, expected[ctx.powers([ctx.primitive], ctx.mult_order, [1])[0]])
        # the x-order kernel works in chunks of B points: across two chunk edges,
        # and at single points
        xs = ctx.domain()[B - 5 : 3 * B + 5]
        assert np.array_equal(spectra._values_over_domain(f, xs), expected[xs])
        xs = np.array([0, B - 1, B, ctx.mult_order], dtype=np.uint32)
        assert spectra._values_over_domain(f, xs).tolist() == [f.eval(int(x)) for x in xs]


@pytest.mark.parametrize("n", [4, 14, 16, 20])
def test_values_over_domain_of_the_zero_polynomial(n):
    ctx = field_new(n)
    zero = SparsePoly.make(ctx, [])
    values = spectra._values_over_domain(zero, ctx.domain())
    assert values.shape == (2**n,) and not values.any()
    walk = np.concatenate([*spectra._walk(zero)])
    assert walk.shape == (2**n - 1,) and not walk.any()


def pp_cases(n):
    """PPs of light and heavy exponents: x^4 + alpha x is linear with no kernel
    (alpha is no cube), alpha x^(2^n - 2) is a multiple of the inverse map."""
    ctx = field_new(n)
    cases = [SparsePoly.make(ctx, [(1, 4), (ctx.primitive, 1)]),
             SparsePoly.make(ctx, [(ctx.primitive, 2**n - 2)])]
    if n == 20:
        cases += [gen_theorem1(make_niho(10, 0, 5, 1))[0].poly,
                  SparsePoly.from_spec(ctx, "2:1,2:4,1:16")]
    return cases


ENGINES = {
    "brute": is_permutation_brute,
    "charsum": is_pp_charsum,
    "delta_direct": lambda f: is_pp_delta_criterion(f, force_direct=True),
}


def counted_table_builds(monkeypatch):
    """A list that grows by one entry per call of FieldCtx._linear_maps."""
    builds = []
    linear_maps = FieldCtx._linear_maps

    def counted(ctx, images):
        builds.append(1)
        return linear_maps(ctx, images)

    monkeypatch.setattr(FieldCtx, "_linear_maps", counted)
    return builds


def counted_builds(monkeypatch, table):
    """A list that grows by the ctx of each build of the cached table FieldCtx.<table>."""
    builds = []
    build = getattr(FieldCtx, table).func

    def counted(ctx):
        builds.append(ctx)
        return build(ctx)

    prop = cached_property(counted)
    prop.__set_name__(FieldCtx, table)
    monkeypatch.setattr(FieldCtx, table, prop)
    return builds


@pytest.mark.parametrize("engine", list(ENGINES))
@pytest.mark.parametrize("n", [4, 8, 10, 14, 20])
def test_pp_verdicts_build_few_tables_and_never_call_pow_vec(monkeypatch, n, engine):
    builds = counted_table_builds(monkeypatch)

    def no_pow_vec(ctx, arr, k):
        raise AssertionError("pow_vec on the way to a true verdict")

    monkeypatch.setattr(FieldCtx, "pow_vec", no_pow_vec)
    # one build for the doublings of the first block (`powers`) and, above one block,
    # one for every term's step to the next block; a spectrum's verdict builds no trace
    # form.  Each case runs on a field built by hand, so no table cached before hides a build
    for f in pp_cases(n):
        f = SparsePoly.make(FieldCtx(n, *gf2n._PINNED[n]), f.terms)
        builds.clear()
        assert ENGINES[engine](f).verdict, f.to_spec()
        assert len(builds) == 1 + (n > 14)


def test_pow_vec_is_reached_only_through_values_over_domain(monkeypatch):
    callers = []
    pow_vec = FieldCtx.pow_vec

    def recorded(ctx, arr, k):
        callers.append(sys._getframe(1).f_code.co_name)
        return pow_vec(ctx, arr, k)

    monkeypatch.setattr(FieldCtx, "pow_vec", recorded)
    # a field built by hand, with no table yet, squares its way to the subfield residue
    ctx = FieldCtx(10, *gf2n._PINNED[10])
    ctx._apply(ctx._residue, np.arange(8, dtype=np.uint32))
    ctx.subfield_mask()
    assert callers == []
    # u an r-th power on the circle (r = 3): the niho path finds a witness
    p = make_niho(5, 1, 3, 3)
    u = build_unit_circle(ctx).elements[3]
    rep = is_pp_delta_criterion(SparsePoly.make(ctx, [(1, p.d1), (u, p.d2)]))
    assert rep.engine == "niho" and not rep.verdict
    assert callers and set(callers) == {"_values_over_domain"}


@pytest.mark.parametrize("n, want", [(4, 1), (10, 1), (14, 1), (16, 2), (20, 2)])
def test_walk_builds_tables_for_the_first_block_and_the_steps_only(monkeypatch, n, want):
    # the first block's doublings, and above n = 14 the steps between blocks: no
    # table for a later block's own scalar
    builds = counted_table_builds(monkeypatch)
    f = four_terms(field_new(n), random.Random(2000 + n))
    blocks = [*spectra._walk(f)]
    assert len(blocks) == -(-(2**n - 1) // spectra._BLOCK) and len(builds) == want


@pytest.mark.parametrize("n", [4, 10])
def test_spectra_of_one_field_compute_the_trace_form_once(monkeypatch, n):
    builds = counted_builds(monkeypatch, "_trace_tables")
    traces = []
    trace = FieldCtx.trace

    def counted(ctx, a, sub_m=1):
        traces.append(a)
        return trace(ctx, a, sub_m)

    monkeypatch.setattr(FieldCtx, "trace", counted)
    ctx = FieldCtx(n, *gf2n._PINNED[n])  # by hand: `field_new(n)` may hold the form already
    pp, fails = SparsePoly.make(ctx, [(1, 1)]), SparsePoly.make(ctx, [(1, 1), (1, 3)])
    # a PP's verdict reads no trace
    assert is_pp_charsum(pp).verdict and is_pp_delta_criterion(pp, force_direct=True).verdict
    assert builds == []
    # a witness search builds the trace form, from the modulus with no scalar trace, and
    # the field keeps it for every later reader
    assert not is_pp_charsum(fails).verdict
    assert builds == [ctx]
    assert not is_pp_delta_criterion(fails, force_direct=True).verdict
    char_sum(fails, 1)
    ctx.trace_bits()
    assert builds == [ctx] and traces == []


@pytest.mark.parametrize("n", [4, 10, 14])
def test_walk_of_a_one_block_field_is_f_in_alpha_order(n):
    ctx = field_new(n)
    f = four_terms(ctx, random.Random(1400 + n))
    blocks = [*spectra._walk(f)]
    assert len(blocks) == 1
    alpha_order = ctx.powers([ctx.primitive], ctx.mult_order, [1])[0]
    assert np.array_equal(blocks[0], unblocked_values(f)[alpha_order])


@pytest.mark.parametrize("size", [1, 3])
@pytest.mark.parametrize("n", [16, 18])
def test_walk_blocks_survive_the_steps_after_them(n, size):
    # the walk steps its runs in place; every block it yields must be its own array,
    # so blocks kept uncopied until the walk ends still hold their values
    ctx = field_new(n)
    rng = random.Random(1700 + 10 * n + size)
    f = SparsePoly.make(ctx, [(rng.randrange(2, ctx.order), rng.randrange(2, 16))
                              for _ in range(size)])
    assert len(f.terms) == size
    blocks = list(spectra._walk(f))
    assert len(blocks) == -(-ctx.mult_order // spectra._BLOCK)
    alpha_order = ctx.powers([ctx.primitive], ctx.mult_order, [1])[0]
    assert np.array_equal(np.concatenate(blocks), unblocked_values(f)[alpha_order])


def test_brute_on_a_one_block_field_evaluates_only_the_witness_prefix(monkeypatch):
    # the walk decides; the witness (50, 215) comes from the x < 2^10 prefix alone
    f = SparsePoly.from_spec(field_new(14), "1:3,5:7")
    calls = []
    pow_vec = FieldCtx.pow_vec

    def counted(ctx, arr, k):
        calls.append((k, len(arr)))
        return pow_vec(ctx, arr, k)

    monkeypatch.setattr(FieldCtx, "pow_vec", counted)
    rep = is_permutation_brute(f)
    monkeypatch.undo()
    assert not rep.verdict and sorted(calls) == [(3, 2**10), (7, 2**10)]
    assert rep.witness == argsort_first_collision(unblocked_values(f)) == (50, 215)


def walk_cases(n):
    """Polynomials at n >= 16 for the brute walk: PPs, collisions inside one
    block of the walk, collisions only across blocks, and seeded random ones."""
    ctx = field_new(n)
    m, alpha = n // 2, ctx.primitive
    cases = [
        # x^4 + alpha x is linear with kernel {x : x^3 = alpha}: a PP, since alpha is no cube
        SparsePoly.make(ctx, [(1, 4), (alpha, 1)]),
        # x^(2^m + 1) repeats with period 2^m - 1 along the walk: inside every block
        SparsePoly.make(ctx, [(alpha, 2**m + 1)]),
        # x^3 repeats at distance (2^n - 1) / 3 > 2^14 along the walk: only across blocks
        SparsePoly.make(ctx, [(1, 3)]),
        # x^2 + beta x pairs x with x + beta, so its first collision (5, 2^(n-1)) lies
        # above 2^14 in x order
        SparsePoly.make(ctx, [(1, 2), (2 ** (n - 1) + 5, 1)]),
    ]
    if m % 2:
        cases.append(gen_theorem1(make_niho(m, 0, 3, 1))[0].poly)
    elif m == 10:
        cases.append(gen_theorem1(make_niho(m, 0, 5, 1))[0].poly)
    rng = random.Random(1600 + n)
    for size in (1, 2, 3):
        cases.append(SparsePoly.make(ctx, [(rng.randrange(1, ctx.order), rng.randrange(1, 16))
                                           for _ in range(size)]))
    return cases


@pytest.mark.parametrize("n", [16, 18, 20])
def test_brute_matches_unblocked_values_on_large_fields(n):
    witnesses = []
    for f in walk_cases(n):
        witness = argsort_first_collision(unblocked_values(f))
        rep = is_permutation_brute(f)
        assert (rep.verdict, rep.witness) == (witness is None, witness), f.to_spec()
        witnesses.append(witness)
    assert None in witnesses and witnesses[3] == (5, 2 ** (n - 1))


def test_brute_witness_is_first_collision_of_unblocked_values():
    ctx = field_new(20)
    f = SparsePoly.from_spec(ctx, "1:1,5:1043461")
    values = unblocked_values(f)
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    x2 = int(np.flatnonzero(first[inverse] != np.arange(ctx.order))[0])
    rep = is_permutation_brute(f)
    assert not rep.verdict
    assert rep.witness == (int(first[inverse[x2]]), x2)


def test_values_over_domain_peak_memory_at_n20():
    f = SparsePoly.from_spec(field_new(20), "1:1,5:1043461,3:5")
    xs = f.ctx.domain()
    tracemalloc.start()
    try:
        spectra._values_over_domain(f, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 4 MiB output plus the arrays of one block; a whole-domain chain needs about 40 MiB
    assert peak <= 12 * 2**20


def counted_walks(monkeypatch):
    """A list that grows by one entry per call of spectra._walk."""
    calls = []
    walk = spectra._walk

    def counted(poly):
        calls.append(poly)
        return walk(poly)

    monkeypatch.setattr(spectra, "_walk", counted)
    return calls


def test_failing_brute_at_n20_walks_once(monkeypatch):
    # x^3 repeats only across blocks of the walk; its first collision lies below x = 2^14
    f = SparsePoly.make(field_new(20), [(1, 3)])
    walks = counted_walks(monkeypatch)
    rep = is_permutation_brute(f)
    assert not rep.verdict and rep.witness[1] < 2**14
    assert f.eval(rep.witness[0]) == f.eval(rep.witness[1])
    assert len(walks) == 1


def test_direct_delta_on_a_pp_walks_once(monkeypatch):
    ctx = field_new(16)
    f = SparsePoly.make(ctx, [(1, 4), (ctx.primitive, 1)])  # alpha is no cube: a PP
    walks = counted_walks(monkeypatch)
    rep = is_pp_delta_criterion(f, force_direct=True)
    assert (rep.engine, rep.verdict, rep.witness) == ("delta_criterion", True, None)
    assert len(walks) == 1


def test_brute_peak_memory_at_n20():
    ctx = field_new(20)
    pp = gen_theorem1(make_niho(10, 0, 5, 1))[0].poly
    non_pp = SparsePoly.from_spec(ctx, "1:1,5:1043461")
    for f, verdict in ((pp, True), (non_pp, False)):
        tracemalloc.start()
        try:
            rep = is_permutation_brute(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.verdict is verdict
        # the 4 MiB image, a 1 MiB mask of the values seen and one block's arrays
        assert peak <= 8 * 2**20


def argsort_first_collision(values):
    """The first collision by one stable argsort of the whole array, or None."""
    order = np.argsort(values, kind="stable")
    sv = values[order]
    repeats = order[1:][sv[1:] == sv[:-1]]
    if not len(repeats):
        return None
    x2 = int(repeats.min())
    return int(np.flatnonzero(values == values[x2])[0]), x2


@pytest.mark.parametrize("x1, x2", [(0, 1), (5, 2**10 - 1), (0, 2**10), (17, 2**10 + 1),
                                    (2**10, 2**10 + 1), (3, 2**14), (0, 2**16 - 1)])
def test_first_collision_matches_argsort(x1, x2):
    values = np.random.default_rng(x2).permutation(2**16).astype(np.uint32)
    values[x2] = values[x1]
    asked = []

    def at(xs):
        asked.append(xs.copy())
        return values[xs]

    witness = spectra._first_collision(at, len(values))
    assert witness == argsort_first_collision(values) == (x1, x2)
    # the stretches asked for tile the prefix, so each point is evaluated once, and
    # the prefixes grow fourfold from 2^10 and stop at the first that holds x2
    ends = [min(4**k << 10, len(values)) for k in range(len(asked))]
    assert [int(xs[-1]) + 1 for xs in asked] == ends
    assert np.array_equal(np.concatenate(asked), np.arange(ends[-1]))
    assert ends[-1] > x2 and (len(ends) == 1 or ends[-2] <= x2)


@pytest.mark.parametrize("size", [0, 1, 2**10, 2**10 + 1, 2**12])
def test_first_collision_without_a_repeat_raises(size):
    values = np.arange(size, dtype=np.uint32)[::-1].copy()
    with pytest.raises(ValueError, match="no value repeats"):
        spectra._first_collision(values.take, size)


# -- character-sum engine --------------------------------------------------------


def test_char_sum_gamma_zero_and_range(ctx6):
    f = SparsePoly.make(ctx6, [(1, 5)])
    assert char_sum(f, 0) == ctx6.order
    with pytest.raises(ValueError):
        char_sum(f, ctx6.order)
    with pytest.raises(ValueError, match="element -1 \\(-0x1\\) outside GF\\(2\\^6\\)"):
        char_sum(f, -1)


def test_char_sum_matches_scalar_oracle():
    ctx = field_new(4)
    rng = random.Random(99)
    for _ in range(6):
        f = random_poly(ctx, rng)
        for gamma in range(ctx.order):
            assert char_sum(f, gamma) == char_sum_oracle(f, gamma)


def test_charsum_agrees_with_brute_on_random_polys():
    rng = random.Random(2024)
    for n in (4, 6, 8):
        ctx = field_new(n)
        for _ in range(25):
            f = random_poly(ctx, rng)
            assert is_pp_charsum(f).verdict == is_permutation_brute(f).verdict, f.to_spec()


def test_charsum_witness_is_first_failing_gamma():
    ctx = field_new(4)
    f = SparsePoly.make(ctx, [(1, 3)])
    rep = is_pp_charsum(f)
    assert not rep.verdict and rep.engine == "charsum"
    for gamma in range(1, rep.witness):
        assert char_sum(f, gamma) == 0
    assert char_sum(f, rep.witness) != 0


def test_char_spectrum_matches_scalar_oracle():
    rng = random.Random(7)
    for n in (4, 6):
        ctx = field_new(n)
        for f in [SparsePoly.make(ctx, [(1, 3)])] + [random_poly(ctx, rng) for _ in range(3)]:
            # the sum at gamma is the transform read at the trace form of gamma
            spectrum = spectra._char_spectrum(f)[ctx._apply(ctx._trace_tables, ctx.domain())]
            assert spectrum.tolist() == [char_sum_oracle(f, g) for g in range(ctx.order)]


def test_char_spectrum_parseval():
    # sum_gamma S(gamma)^2 = 2^n sum_y H[y]^2 for any g, permutation or not
    rng = random.Random(8)
    for n in (4, 6, 8, 10):
        ctx = field_new(n)
        for f in [SparsePoly.make(ctx, [])] + [random_poly(ctx, rng) for _ in range(4)]:
            spectrum = spectra._char_spectrum(f)
            hist = np.bincount(spectra._values_over_domain(f, ctx.domain()), minlength=ctx.order)
            assert int((spectrum**2).sum()) == ctx.order * int((hist**2).sum())


def reference_corpus(ctx, rng):
    """Monomials, linearized trinomials (which often permute) and binomials
    whose first exponent is not coprime to 2^n - 1, so that the pivot is the
    second term; every coefficient is random, so the pivot's is rarely 1."""
    polys = [SparsePoly.make(ctx, [(rng.randrange(1, ctx.order), d)]) for d in (1, 3, 5, 7)]
    for _ in range(8):
        exps = rng.sample([2**i for i in range(ctx.n)], 3)
        polys.append(SparsePoly.make(ctx, [(rng.randrange(1, ctx.order), e) for e in exps]))
    lead = [e for e in range(1, ctx.mult_order) if gcd(e, ctx.mult_order) != 1]
    for _ in range(8):
        e1 = rng.choice(lead)
        e2 = rng.choice([e for e in range(e1 + 1, ctx.order) if gcd(e, ctx.mult_order) == 1])
        polys.append(SparsePoly.make(ctx, [(rng.randrange(1, ctx.order), e) for e in (e1, e2)]))
    return polys


@pytest.mark.parametrize("n", [4, 6, 8])
def test_spectrum_engines_match_reference_loops(n):
    ctx = field_new(n)
    covered = set()
    for f in reference_corpus(ctx, random.Random(n)):
        rep = is_pp_charsum(f)
        assert (rep.verdict, rep.witness) == charsum_loop(f), f.to_spec()
        if not f.has_unit_pivot():
            continue
        rep = is_pp_delta_criterion(f, force_direct=True)
        assert (rep.verdict, rep.witness) == delta_direct_loop(f), f.to_spec()
        pivot = next(i for i, (_, e) in enumerate(f.terms) if gcd(e, ctx.mult_order) == 1)
        covered |= {
            "pp" if rep.verdict else "non-pp",
            "monomial" if len(f.terms) == 1 else "terms",
            "pivot not first" if pivot else "pivot first",
            "pivot coefficient 1" if f.terms[pivot][0] == 1 else "pivot coefficient not 1",
        }
    assert {"pp", "non-pp", "monomial", "pivot not first", "pivot coefficient not 1"} <= covered


@pytest.mark.parametrize("n", [14, 16, 18, 20])
def test_spectrum_engines_agree_with_brute_at_large_n(n):
    ctx = field_new(n)
    # x^4 + alpha*x permutes (alpha is not a cube); x^3 + x sends 0 and 1 to 0
    for spec, want in ((f"{ctx.primitive:x}:1,1:4", True), ("1:1,1:3", False)):
        f = SparsePoly.from_spec(ctx, spec)
        charsum = is_pp_charsum(f)
        direct = is_pp_delta_criterion(f, force_direct=True)
        assert direct.engine == "delta_criterion"
        assert is_permutation_brute(f).verdict == charsum.verdict == direct.verdict == want
        if not want:
            assert char_sum(f, charsum.witness) != 0


@pytest.mark.parametrize("n, spec, charsum, direct, default, brute", [
    (16, "d632:29929,1:48859", 7, 1, ("delta_criterion", 1), (0, 382)),
    (18, "1:21107,35b3c:224996", 3, 2, ("niho", 2), (195, 267)),
    (18, "1:514,25401:261124", 1, 1, ("niho", 1), (0, 923)),
])
def test_witnesses_above_the_walk_seam(n, spec, charsum, direct, default, brute):
    # non-PPs past one block of the walk: every witness search runs over stepped blocks
    f = SparsePoly.from_spec(field_new(n), spec)
    rep = is_pp_delta_criterion(f)
    assert is_pp_charsum(f).witness == charsum
    assert is_pp_delta_criterion(f, force_direct=True).witness == direct
    assert (rep.engine, rep.witness) == default
    assert is_permutation_brute(f).witness == brute
    sums = [char_sum(f, gamma) for gamma in range(1, charsum + 1)]
    assert sums[-1] != 0 and not any(sums[:-1])


# -- delta-criterion engine ------------------------------------------------------


def test_delta_needs_a_pivot_exponent():
    ctx = field_new(4)
    with pytest.raises(ValueError, match="coprime"):
        is_pp_delta_criterion(SparsePoly.make(ctx, [(1, 3)]))
    with pytest.raises(ValueError, match="coprime"):
        is_pp_delta_criterion(SparsePoly.make(ctx, [(1, 3), (2, 5)]))
    with pytest.raises(ValueError):
        is_pp_delta_criterion(SparsePoly.make(ctx, []))


def test_delta_engine_labels(ctx6):
    niho = SparsePoly.make(ctx6, [(1, 10), (3, 52)])  # 52 - 10 = 42 = 6 * 7
    assert is_pp_delta_criterion(niho).engine == "niho"
    assert is_pp_delta_criterion(niho, force_direct=True).engine == "delta_criterion"
    mixed = SparsePoly.make(ctx6, [(1, 1), (1, 3)])  # 3 - 1 not a multiple of 7
    assert is_pp_delta_criterion(mixed).engine == "delta_criterion"


def test_delta_monomial_shortcut(ctx6):
    # a nonzero scalar times x^d permutes iff gcd(d, 2^n - 1) = 1; the engine
    # needs only a single delta for monomials
    for c, d in ((5, 5), (1, 11), (0x3F, 62)):
        rep = is_pp_delta_criterion(SparsePoly.make(ctx6, [(c, d)]))
        assert rep.engine == "niho"
        assert rep.verdict == (gcd(d, ctx6.mult_order) == 1)
        assert rep.verdict == is_permutation_brute(
            SparsePoly.make(ctx6, [(c, d)])
        ).verdict


def test_delta_direct_agrees_with_brute_on_random_polys():
    rng = random.Random(555)
    for n in (4, 6):
        ctx = field_new(n)
        checked = 0
        while checked < 20:
            f = random_poly(ctx, rng)
            if not any(gcd(e, ctx.mult_order) == 1 for _, e in f.terms):
                continue
            checked += 1
            assert (
                is_pp_delta_criterion(f, force_direct=True).verdict
                == is_permutation_brute(f).verdict
            ), f.to_spec()


def test_delta_both_paths_match_brute_for_all_binomial_coefficients(ctx6):
    """x^10 + u x^52 over GF(2^6) for every u != 0: four engines, one verdict.

    The exponent pair is Niho-shaped, so the circle path applies for every u,
    on or off the unit circle; failing u values must produce the same first
    failing delta from both delta paths, and that delta must check out by a
    direct gamma=1 character sum.
    """
    d1, d2 = 10, 52
    shift = (d1 - d2) % ctx6.mult_order
    failures = 0
    for u in range(1, ctx6.order):
        f = SparsePoly.make(ctx6, [(1, d1), (u, d2)])
        want = is_permutation_brute(f).verdict
        rep_c = is_pp_delta_criterion(f)
        rep_d = is_pp_delta_criterion(f, force_direct=True)
        assert rep_c.engine == "niho" and rep_d.engine == "delta_criterion"
        assert rep_c.verdict == rep_d.verdict == want
        assert is_pp_charsum(f).verdict == want
        if want:
            continue
        failures += 1
        assert rep_c.witness == rep_d.witness
        delta = rep_c.witness
        for d in range(1, delta + 1):
            w = ctx6.mul(u, ctx6.pow(d, shift))
            g = SparsePoly.make(ctx6, [(1, d1), (w, d2)])
            if d < delta:
                assert char_sum(g, 1) == 0
            else:
                assert char_sum(g, 1) != 0
    assert failures > 0  # the sweep must exercise the witness branch


def test_delta_handles_non_unit_pivot_coefficient(ctx6):
    rng = random.Random(31)
    for _ in range(10):
        c = rng.randint(2, ctx6.order - 1)
        u = rng.randint(1, ctx6.order - 1)
        f = SparsePoly.make(ctx6, [(c, 10), (u, 52)])
        want = is_permutation_brute(f).verdict
        assert is_pp_delta_criterion(f).verdict == want
        assert is_pp_delta_criterion(f, force_direct=True).verdict == want


def test_delta_on_known_permutation_trinomials(ctx6):
    for exps in ((12, 19, 33), (8, 15, 57)):
        f = SparsePoly.make(ctx6, [(1, e) for e in exps])
        rep = is_pp_delta_criterion(f)
        assert rep.engine == "niho" and rep.verdict
        assert is_pp_delta_criterion(f, force_direct=True).verdict
        assert is_permutation_brute(f).verdict


def test_delta_path_pivot_and_engine(ctx6):
    assert delta_path(ctx6, (10, 52)) == (0, "niho")
    assert delta_path(ctx6, (3, 10)) == (1, "niho")  # 10 - 3 = 7 = 2^m - 1
    assert delta_path(ctx6, (7, 14)) == (None, "niho")
    assert delta_path(ctx6, (7, 9)) == (None, "delta_criterion")
    assert delta_path(ctx6, (2, 10)) == (0, "delta_criterion")
    # the override lives in is_pp_delta_criterion, not in the path rule
    f6 = SparsePoly.make(ctx6, [(1, 10), (6, 52)])
    assert is_pp_delta_criterion(f6, force_direct=True).engine == "delta_criterion"
    f14 = SparsePoly.make(field_new(14), [(1, 130), (1, 16132)])
    assert delta_path(f14.ctx, f14.exponents()) == (0, "niho")
    assert is_pp_delta_criterion(f14, force_direct=True).engine == "delta_criterion"


def test_circle_paths_run_above_n12():
    ctx = field_new(14)
    rep = is_pp_delta_criterion(SparsePoly.make(ctx, [(1, 5)]))
    assert rep.engine == "niho" and rep.verdict
    params = make_niho(7, 1, 3, 3)
    u = complement_coset(build_unit_circle(ctx), 3)[0]
    rep = unique_solution_check(params, u)
    assert rep.engine == "niho" and rep.verdict


# -- circle counts and the collapsed sum --------------------------------------------


def test_collapsed_sum_matches_char_sum():
    rng = random.Random(7)
    for n in (4, 6, 8):
        ctx = field_new(n)
        m = ctx.m
        coprime = [d for d in range(1, ctx.mult_order) if gcd(d, ctx.mult_order) == 1]
        for _ in range(30):
            d1 = rng.choice(coprime)
            k = rng.randint(1, 2)
            ts = rng.sample(range(1, 2**m + 1), k)
            ds = [canonical_exponent(d1 + t * (2**m - 1), n) for t in ts]
            ws = [rng.randint(1, ctx.order - 1) for _ in ds]
            g = SparsePoly.make(ctx, [(1, d1)] + list(zip(ws, ds)))
            assert exp_sum_via_niho(ctx, [d1] + ds, ws) == char_sum(g, 1)


def test_circle_count_for_monomial_is_one(ctx6):
    for d1 in (1, 5, 10, 11):
        assert gcd(d1, 63) == 1
        assert count_unit_circle_solutions(ctx6, [d1], []) == 1
        assert exp_sum_via_niho(ctx6, [d1], []) == 0


def test_circle_count_input_validation(ctx6):
    with pytest.raises(ValueError, match="at least"):
        count_unit_circle_solutions(ctx6, [], [])
    with pytest.raises(ValueError, match="one coefficient"):
        count_unit_circle_solutions(ctx6, [10, 52], [])
    with pytest.raises(ValueError, match="congruent"):
        count_unit_circle_solutions(ctx6, [10, 11], [1])
    with pytest.raises(ValueError, match="gcd"):
        count_unit_circle_solutions(ctx6, [7, 14], [1])
    with pytest.raises(ValueError, match="outside"):
        count_unit_circle_solutions(ctx6, [10, 52], [64])
    with pytest.raises(ValueError, match="element -1 \\(-0x1\\) outside GF\\(2\\^6\\)"):
        count_unit_circle_solutions(ctx6, [10, 52], [-1])


def circle_counts_reference(circle, ds, coeffs, qs):
    """`spectra._circle_counts` by (rows x M) int64 index arithmetic mod M, term by term."""
    ctx = circle.ctx
    pts = np.array(circle.elements, dtype=np.uint32)
    M = len(pts)
    t = np.arange(M // gcd(M, *qs))[:, None]
    a = np.arange(M)
    h = np.tile(ctx._apply(ctx._residue, pts)[a * ds[0] % M], (len(t), 1))
    for c, d, q in zip(coeffs, ds[1:], qs):
        h ^= ctx._apply(ctx._residue, ctx.scalar_mul_vec(c, pts))[(t * q + a * d) % M]
    return np.resize((h == 0).sum(axis=1), M)


def circle_count_args(ctx, rng, qs):
    """(ds, coeffs, qs) of x^d1 + sum c_i x^(d1 - q_i (2^m - 1)) for random nonzero c_i and
    the first pivot d1 from 2^m + 3 that is coprime to 2^n - 1."""
    N = ctx.mult_order
    d1 = next(d for d in range(2**ctx.m + 3, N) if gcd(d, N) == 1)
    ds = [d1] + [(d1 - q * (2**ctx.m - 1)) % N for q in qs]
    return ds, [rng.randrange(1, ctx.order) for _ in qs], qs


@pytest.mark.parametrize("m", range(2, 11))
def test_circle_counts_match_the_int64_reference(m):
    ctx = field_new(2 * m)
    circle = build_unit_circle(ctx)
    M, rng = circle.order, random.Random(3100 + m)
    p = next(p for p in range(3, M + 1) if M % p == 0)  # the least prime factor of M
    for k in (1, 2, 3):
        every = circle_count_args(ctx, rng, [1] + [rng.randrange(M) for _ in range(k - 1)])
        few = circle_count_args(ctx, rng, [p * rng.randrange(M // p) for _ in range(k)])
        assert M // gcd(M, *few[2]) < M
        # a last q with d1 + 2q = 0 mod p makes p divide d = d1 - q (2^m - 1)
        qs = [rng.randrange(M) for _ in range(k - 1)] + [-every[0][0] * (p + 1) // 2 % p]
        shared = circle_count_args(ctx, rng, qs)
        assert shared[0][-1] % p == 0
        zero = (every[0], [0] + every[1][1:], every[2])
        for ds, coeffs, qs in (every, few, shared, zero):
            want = circle_counts_reference(circle, ds, coeffs, qs)
            assert spectra._circle_counts(circle, ds, coeffs, qs).tolist() == want.tolist()


def test_circle_count_peak_memory_at_m10():
    circle = build_unit_circle(field_new(20))
    ds, coeffs, qs = circle_count_args(circle.ctx, random.Random(3200), [1])
    spectra._circle_counts(circle, ds, coeffs, qs)  # the field's tables, built once
    tracemalloc.start()
    try:
        spectra._circle_counts(circle, ds, coeffs, qs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # all 1025 rows: the term's 1025^2 uint32 entries, gathered at uint16 indices (about
    # 6 MiB); int64 index arithmetic mod M needs about 20 MiB
    assert peak <= 8 * 2**20


def test_circle_verdicts_share_the_circle_and_its_tables(monkeypatch):
    params = make_niho(10, 0, 5, 1)
    u = gen_theorem1(params)[0].u
    f = SparsePoly.from_spec(field_new(20), "1:1,1:1043461")
    unique_solution_check(params, u)
    is_pp_delta_criterion(f)
    residues = counted_builds(monkeypatch, "_residue")
    powers, original = [], FieldCtx.powers
    monkeypatch.setattr(FieldCtx, "powers", lambda *a, **k: powers.append(a) or original(*a, **k))
    # the circle, and its ctx's residue tables, are shared by every field equal to its ctx,
    # the one `field_new(20)` or one built by hand
    assert unique_solution_check(params, u).verdict
    f = SparsePoly.make(FieldCtx(20, *gf2n._PINNED[20]), f.terms)
    assert is_pp_delta_criterion(f).witness == 1
    assert residues == [] and powers == []


# -- unique-solution check -----------------------------------------------------------


def test_unique_solution_accepts_whole_eligible_coset(ctx6, circle6):
    params = make_niho(3, 1, 3, 3)
    for u in complement_coset(circle6, 3):
        rep = unique_solution_check(params, u)
        assert rep.verdict and rep.witness is None and rep.engine == "niho"
        f = SparsePoly.make(ctx6, [(1, params.d1), (u, params.d2)])
        assert is_permutation_brute(f).verdict


def test_unique_solution_builds_field_when_omitted():
    params = make_niho(3, 1, 3, 3)
    ctx = field_new(6)
    u = complement_coset(build_unit_circle(ctx), 3)[0]
    assert unique_solution_check(params, u).verdict


def test_unique_solution_l_congruent_zero(ctx6, circle6):
    # l = 9 = 2^m + 1: the coset walk has a single member and delta = 1 first
    params = make_niho(3, 4, 9, 1)
    assert params.d1 == params.d2 == 29
    for u in complement_coset(circle6, 9):
        rep = unique_solution_check(params, u)
        assert rep.verdict
        f = SparsePoly.make(ctx6, [(1, params.d1), (u, params.d2)])
        assert len(f.terms) == 1  # merged into (1 ^ u) x^29
        assert is_permutation_brute(f).verdict


def test_unique_solution_precondition_errors(ctx6, circle6):
    u = complement_coset(circle6, 3)[0]
    with pytest.raises(ValueError, match="gcd\\(d1"):
        unique_solution_check(make_niho(3, 1, 3, 7), u)
    with pytest.raises(ValueError, match="condition \\(i\\)"):
        unique_solution_check(make_niho(3, 1, 1, 3), u)
    circle10 = build_unit_circle(field_new(10))
    with pytest.raises(ValueError, match="condition \\(ii\\)"):
        unique_solution_check(make_niho(5, 13, 3, 1), complement_coset(circle10, 3)[0])
    with pytest.raises(ValueError, match="not on the unit circle"):
        unique_solution_check(make_niho(3, 1, 3, 3), 0)
    off = ctx6.pow(ctx6.primitive, 9)  # generates the subfield, not the circle
    with pytest.raises(ValueError, match="not on the unit circle"):
        unique_solution_check(make_niho(3, 1, 3, 3), off)
    for outside in (64 + circle6.elements[1], -1):  # outside GF(2^6)
        with pytest.raises(ValueError, match="not on the unit circle"):
            unique_solution_check(make_niho(3, 1, 3, 3), outside)
    with pytest.raises(ValueError, match="u = -0x1 is not"):
        unique_solution_check(make_niho(3, 1, 3, 3), -1)
    cube = power_subgroup(circle6, 3)[1]
    with pytest.raises(ValueError, match="r-th power"):
        unique_solution_check(make_niho(3, 1, 3, 3), cube)
    with pytest.raises(ValueError, match="r-th power"):
        unique_solution_check(make_niho(3, 1, 3, 3), 1)


def first_delta_of_class(ctx, circle):
    """Class t -> the smallest delta with delta^(2^m - 1) = g^t, by a scalar loop."""
    first = {}
    for delta in range(1, ctx.order):
        first.setdefault(circle.index[ctx.pow(delta, 2**ctx.m - 1)], delta)
    return first


def failing_classes(monkeypatch, classes):
    """Make the unit-circle count report exactly ``classes`` as failing."""

    def counts(circle, ds, coeffs, qs):
        out = np.ones(circle.order, dtype=np.int64)
        out[list(classes)] = 0
        return out

    monkeypatch.setattr(spectra, "_circle_counts", counts)


def test_unique_solution_witness_recovery(monkeypatch):
    """Forced failures at chosen classes: the witness is the first delta in
    integer order whose class fails, not a power of the primitive element."""
    ctx = field_new(6)
    circle = build_unit_circle(ctx)
    params = make_niho(3, 1, 3, 3)
    u = complement_coset(circle, 3)[0]
    assert unique_solution_check(params, u).verdict
    first = first_delta_of_class(ctx, circle)
    for poisoned in [(3,), (3, 5), (1, 4)]:
        failing_classes(monkeypatch, poisoned)
        rep = unique_solution_check(params, u)
        assert not rep.verdict and rep.engine == "niho"
        assert rep.witness == min(first[t] for t in poisoned)
    assert first[3] == 5 and ctx.pow(ctx.primitive, 3) == 8


@pytest.mark.parametrize("m, s, l, e", [(4, 0, 0, 1), (5, 0, 3, 1)])
def test_niho_witness_is_first_delta_of_each_class(monkeypatch, m, s, l, e):
    f = gen_theorem1(make_niho(m, s, l, e))[0].poly
    ctx = f.ctx
    circle = build_unit_circle(ctx)
    assert is_pp_delta_criterion(f).verdict
    first = first_delta_of_class(ctx, circle)
    witnesses = []
    for t in range(circle.order):
        failing_classes(monkeypatch, [t])
        rep = is_pp_delta_criterion(f)
        assert rep.engine == "niho" and not rep.verdict
        witnesses.append(rep.witness)
    assert witnesses == [first[t] for t in range(circle.order)]
    assert max(witnesses) > 2**m + 1  # found beyond the first block


@pytest.mark.parametrize("n, spec, witness", [
    (16, "1:298,45b6:10753", 353),
    (20, "1:278,18711:74957", 392),
])
def test_niho_and_direct_witnesses_agree_on_large_fields(n, spec, witness):
    f = SparsePoly.from_spec(field_new(n), spec)
    niho = is_pp_delta_criterion(f)
    direct = is_pp_delta_criterion(f, force_direct=True)
    assert (niho.engine, direct.engine) == ("niho", "delta_criterion")
    assert not niho.verdict and not direct.verdict
    assert niho.witness == direct.witness == witness


def test_circle_path_never_touches_the_whole_field(monkeypatch):
    params = make_niho(10, 0, 5, 1)
    u = gen_theorem1(params)[0].u
    f = SparsePoly.from_spec(field_new(20), "1:1,1:1043461")

    def whole_field(self):
        raise AssertionError("whole-field array on the circle path")

    monkeypatch.setattr(FieldCtx, "domain", whole_field)
    monkeypatch.setattr(FieldCtx, "subfield_mask", whole_field)
    rep = unique_solution_check(params, u)
    assert (rep.engine, rep.verdict, rep.witness) == ("niho", True, None)
    rep = is_pp_delta_criterion(f)
    assert (rep.engine, rep.verdict, rep.witness) == ("niho", False, 1)


# -- complete permutations ------------------------------------------------------------


def test_is_cpp_on_known_complete_permutation(ctx6, circle6):
    d1 = 43  # 6 * 7 + 1
    for u in complement_coset(circle6, 3):
        f = SparsePoly.make(ctx6, [(ctx6.inv(u), d1)])
        rep = is_cpp(f)
        assert rep.verdict and rep.engine == "brute" and rep.witness is None


def test_is_cpp_identity_fails_on_shifted_map():
    ctx = field_new(4)
    rep = is_cpp(SparsePoly.make(ctx, [(1, 1)]))
    assert not rep.verdict
    assert rep.witness == (0, 1)  # x + x is identically zero


def test_is_cpp_reports_base_failure_first():
    ctx = field_new(4)
    rep = is_cpp(SparsePoly.make(ctx, [(1, 3)]))
    assert not rep.verdict
    assert rep.witness == (0x1, 0x6)  # the map itself already collides

"""Field arithmetic tests.

The multiplication oracle here is deliberately different from the library's
shift-and-reduce loop: carry-less product first, then polynomial long
division by the modulus.  Primitivity of the pinned generators doubles as an
irreducibility proof for the pinned moduli (a ring with zero divisors cannot
contain an element of multiplicative order 2^n - 1), and every pinned pair is
derived again from the rule the gf2n docstring states, with this oracle alone.
"""

import json
import random
import signal
import tracemalloc

import numpy as np
import pytest

from nihoperm import gf2n
from nihoperm.gf2n import (
    SUPPORTED_N,
    FieldCtx,
    SparsePoly,
    canonical_exponent,
    field_new,
)
from nihoperm.spectra import char_sum
from nihoperm.unit_circle import polar_decompose


def clmul(a: int, b: int) -> int:
    """Carry-less (GF(2)[x]) product of two bit-encoded polynomials."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        a <<= 1
        b >>= 1
    return p


def polymod(a: int, mod: int) -> int:
    """Remainder of a modulo mod in GF(2)[x], by long division."""
    dm = mod.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


def oracle_mul(ctx: FieldCtx, a: int, b: int) -> int:
    return polymod(clmul(a, b), ctx.irreducible)


def prime_factors(n: int) -> list:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


@pytest.fixture(scope="module", params=SUPPORTED_N)
def ctx(request):
    return field_new(request.param)


def test_supported_degrees_are_even_4_to_20():
    assert SUPPORTED_N == (4, 6, 8, 10, 12, 14, 16, 18, 20)


def test_field_new_rejects_unsupported():
    for bad in (2, 3, 5, 7, 21, 22, 0, -4):
        with pytest.raises(ValueError):
            field_new(bad)


def test_pinned_modulus_has_degree_n(ctx):
    assert ctx.irreducible.bit_length() == ctx.n + 1
    assert ctx.order == 2**ctx.n
    assert ctx.mult_order == 2**ctx.n - 1
    assert ctx.m == ctx.n // 2


def test_primitive_element_has_full_order(ctx):
    # an element of order 2^n - 1 exists only in a field, so this also
    # certifies the modulus is irreducible; `pow` reduces the exponent mod
    # 2^n - 1, so a^(2^n - 1) is taken as a^(2^n - 2) a
    assert ctx.mul(ctx.pow(ctx.primitive, ctx.mult_order - 1), ctx.primitive) == 1
    for q in prime_factors(ctx.mult_order):
        assert ctx.pow(ctx.primitive, ctx.mult_order // q) != 1


def powmod(a: int, k: int, mod: int) -> int:
    """a^k modulo mod in GF(2)[x], by square-and-multiply on the oracle product."""
    result = 1
    while k:
        if k & 1:
            result = polymod(clmul(result, a), mod)
        a = polymod(clmul(a, a), mod)
        k >>= 1
    return result


def is_irreducible(f: int) -> bool:
    """Rabin's test for f of degree n over GF(2): x^(2^n) = x mod f, and
    gcd(x^(2^(n/q)) - x, f) = 1 for each prime q dividing n."""
    n = f.bit_length() - 1

    def x_to_2_to(k):
        return powmod(0b10, 2**k, f)

    def gcd(a, b):
        while b:
            a, b = b, polymod(a, b)
        return a

    return x_to_2_to(n) == 0b10 and all(
        gcd(f, x_to_2_to(n // q) ^ 0b10) == 1 for q in prime_factors(n))


def test_pinned_pairs_follow_the_stated_rule():
    # the rule of the gf2n docstring, derived with the oracle product only: the least
    # irreducible trinomial, else the least irreducible pentanomial; then the least
    # element of order 2^n - 1.  This is the proof of every pinned pair.
    for n in SUPPORTED_N:
        top = (1 << n) | 1
        trinomials = [top | 1 << k for k in range(1, n)]
        pentanomials = sorted(top | 1 << a | 1 << b | 1 << c
                              for a in range(3, n) for b in range(2, a) for c in range(1, b))
        modulus = next(filter(is_irreducible, trinomials), None) or next(
            filter(is_irreducible, pentanomials))
        N = 2**n - 1
        element = next(a for a in range(1, 1 << n) if powmod(a, N, modulus) == 1
                       and all(powmod(a, N // q, modulus) != 1 for q in prime_factors(N)))
        assert gf2n._PINNED[n] == (modulus, element), n


def test_mul_matches_long_division_oracle(ctx):
    rng = random.Random(1000 + ctx.n)
    pairs = [(rng.randrange(ctx.order), rng.randrange(ctx.order)) for _ in range(40)]
    pairs += [(0, 5), (1, 7), (ctx.order - 1, ctx.order - 1)]
    for a, b in pairs:
        assert ctx.mul(a, b) == oracle_mul(ctx, a, b)
        assert ctx.mul(a, b) == ctx.mul(b, a)


def test_ring_axioms_sampled(ctx):
    rng = random.Random(2000 + ctx.n)
    for _ in range(25):
        a, b, c = (rng.randrange(ctx.order) for _ in range(3))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)
        assert ctx.mul(a, 1) == a
        assert ctx.add(a, a) == 0
        # Frobenius is additive in characteristic 2
        assert ctx.sqr(a ^ b) == ctx.sqr(a) ^ ctx.sqr(b)


def test_inverse_on_the_whole_small_fields():
    for n in (4, 6, 8):
        ctx = field_new(n)
        for a in range(1, ctx.order):
            assert ctx.mul(a, ctx.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            ctx.inv(0)


def test_pow_edge_cases(ctx):
    assert ctx.pow(0, 0) == 1
    assert ctx.pow(0, 5) == 0
    assert ctx.pow(1, -3) == 1
    with pytest.raises(ZeroDivisionError):
        ctx.pow(0, -1)
    a = ctx.primitive
    assert ctx.pow(a, -1) == ctx.inv(a)
    assert ctx.pow(a, ctx.mult_order) == 1
    # exponents act mod 2^n - 1 on nonzero elements
    rng = random.Random(3000 + ctx.n)
    for _ in range(10):
        x = rng.randrange(1, ctx.order)
        k = rng.randrange(1, 4 * ctx.mult_order)
        assert ctx.pow(x, k) == ctx.pow(x, k % ctx.mult_order)


def test_pow_matches_oracle_small():
    ctx = field_new(6)
    for a in (0, 1, 2, 0x2B, 0x3F):
        acc = 1
        for k in range(1, 20):
            acc = oracle_mul(ctx, acc, a)
            assert ctx.pow(a, k) == acc


def test_trace_properties(ctx):
    rng = random.Random(4000 + ctx.n)
    for _ in range(20):
        a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
        ta, tb = ctx.trace(a), ctx.trace(b)
        assert ta in (0, 1)
        assert ctx.trace(a ^ b) == ta ^ tb
        assert ctx.trace(ctx.sqr(a)) == ta  # invariant under Frobenius


def test_trace_absolute_matches_independent_oracle():
    for n in (4, 6, 8):
        ctx = field_new(n)
        for a in range(ctx.order):
            t, acc = a, a
            for _ in range(n - 1):
                t = oracle_mul(ctx, t, t)
                acc ^= t
            assert ctx.trace(a) == acc


def test_trace_onto_subfield(ctx):
    m = ctx.m
    rng = random.Random(5000 + ctx.n)
    for _ in range(15):
        a = rng.randrange(ctx.order)
        t = ctx.trace(a, m)
        # image lies in GF(2^m): fixed by x -> x^(2^m)
        assert ctx.pow(t, 2**m) == t
        # matches the defining sum a + a^(2^m)
        assert t == a ^ ctx.pow(a, 2**m)
    bad_sub = next(k for k in range(3, ctx.n + 2) if ctx.n % k != 0)
    with pytest.raises(ValueError):
        ctx.trace(1, bad_sub)
    for sub_m in (0, -1):
        with pytest.raises(ValueError, match="sub_m"):
            ctx.trace(0x2C, sub_m)


def test_trace_tower_exact():
    # Tr_1^n = Tr_1^m . Tr_m^n, computed with scalar ops only
    for n in (4, 6, 10):
        ctx = field_new(n)
        m = ctx.m
        for a in random.Random(n).sample(range(ctx.order), min(30, ctx.order)):
            rel = ctx.trace(a, m)
            absolute = rel
            t = rel
            for _ in range(m - 1):
                t = ctx.sqr(t)
                absolute ^= t
            assert absolute == ctx.trace(a)


def test_enumerate(ctx):
    # the domain array is every element in increasing integer order
    assert ctx.domain().dtype == np.uint32
    assert ctx.domain().tolist() == list(range(ctx.order))


def test_field_spec_shape(ctx):
    spec = ctx.field_spec()
    assert list(spec) == ["n", "irreducible_hex", "primitive_hex"]
    assert spec["n"] == ctx.n
    assert int(spec["irreducible_hex"], 16) == ctx.irreducible
    assert int(spec["primitive_hex"], 16) == ctx.primitive
    json.dumps(spec)  # serializable as-is


def test_field_equality_is_by_value():
    for n in SUPPORTED_N:
        a, b = field_new(n), FieldCtx(n)  # one field per n; b by hand
        assert a is field_new(n)
        assert a is not b and a == b and hash(a) == hash(b)
        assert (b.irreducible, b.primitive) == gf2n._PINNED[n]
    assert field_new(6) != field_new(8)
    assert field_new(6) != 6
    assert SparsePoly.from_spec(field_new(6), "1:10,6:52") == SparsePoly.from_spec(
        field_new(6), "1:10,6:52"
    )


# -- vectorized kernels -------------------------------------------------------


def test_mul_vec_full_domain_against_scalar():
    for n in (4, 6, 8):
        ctx = field_new(n)
        d = ctx.domain()
        for b in (1, 2, 3, ctx.primitive, ctx.order - 1):
            got = ctx.mul_vec(d, np.full(ctx.order, b, np.uint32))
            want = np.array([ctx.mul(x, b) for x in range(ctx.order)], np.uint32)
            assert np.array_equal(got, want)


def test_scalar_mul_vec_matches_mul_vec(ctx):
    rng = random.Random(6000 + ctx.n)
    sample = np.array(rng.sample(range(ctx.order), min(ctx.order, 512)), np.uint32)
    for c in (0, 1, 2, ctx.primitive, ctx.order - 1):
        got = ctx.scalar_mul_vec(c, sample)
        want = ctx.mul_vec(np.full(len(sample), c, np.uint32), sample)
        assert np.array_equal(got, want)
    for c, hex_c in ((ctx.order, f"0x{ctx.order:x}"), (-1, "-0x1")):
        outside = f"element {c} \\({hex_c}\\) outside GF\\(2\\^{ctx.n}\\)"
        with pytest.raises(ValueError, match=outside):
            ctx.scalar_mul_vec(c, sample)


def test_sqr_vec_matches_scalar(ctx):
    rng = random.Random(7000 + ctx.n)
    sample = np.array(rng.sample(range(ctx.order), min(ctx.order, 4096)), np.uint32)
    got = ctx.sqr_vec(sample)
    for i in range(0, len(sample), 16):
        assert int(got[i]) == ctx.sqr(int(sample[i]))


@pytest.mark.parametrize("n", [n for n in SUPPORTED_N if n <= 12])
def test_linear_kernels_on_every_element(n):
    ctx = field_new(n)
    d = ctx.domain()
    elems = range(ctx.order)
    assert ctx.sqr_vec(d).tolist() == [ctx.sqr(x) for x in elems]
    c_rand = random.Random(7500 + n).randrange(ctx.order)
    for c in (0, 1, ctx.primitive, ctx.order - 1, c_rand):
        assert ctx.scalar_mul_vec(c, d).tolist() == [ctx.mul(c, x) for x in elems]
    assert ctx.trace_bits().tolist() == [ctx.trace(x) for x in elems]
    assert ctx.subfield_mask().tolist() == [ctx.pow(x, 2**ctx.m) == x for x in elems]


def test_cached_arrays_are_not_handed_out_writable():
    ctx = field_new(6)
    # the cached table pairs are shared by every caller of the field
    for tables in (ctx._squares, ctx._residue, ctx._trace_tables):
        assert not tables.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            tables[0, 1] = 0
    x = SparsePoly.make(ctx, [(1, 1)])
    ctx.trace_bits()[:] = 0
    assert char_sum(x, 1) == 0 and int(ctx.trace_bits().sum()) == ctx.order // 2
    ctx.domain()[:] = 0
    assert ctx.domain().tolist() == list(range(ctx.order))


def test_pow_vec_matches_scalar(ctx):
    rng = random.Random(8000 + ctx.n)
    sample = np.array(rng.sample(range(ctx.order), min(ctx.order, 256)), np.uint32)
    for k in (0, 1, 2, 3, ctx.mult_order, ctx.mult_order + 1, 2**ctx.m + 1):
        got = ctx.pow_vec(sample, k)
        for i in range(0, len(sample), 17):
            assert int(got[i]) == ctx.pow(int(sample[i]), k)
    with pytest.raises(ValueError):
        ctx.pow_vec(sample, -1)


def test_powers_match_a_scalar_chain(ctx):
    a = random.Random(8500 + ctx.n).randrange(2, ctx.order)
    chain = [1]
    for _ in range(1100):
        chain.append(ctx.mul(chain[-1], a))
    # counts on both sides of the scalar head (8) and of each doubling
    for count in (0, 1, 2, 7, 8, 9, 33, 64, 65, 128, 129, 1000, 1025):
        got = ctx.powers([a], count, [1])[0]
        assert got.dtype == np.uint32
        assert got.tolist() == chain[:count]
        # a start c scales the row
        c = 1 + count % (ctx.order - 1)
        assert ctx.powers([a], count, [c])[0].tolist() == [ctx.mul(c, p) for p in chain[:count]]


def test_powers_of_a_list_are_one_row_per_element(ctx):
    rng = random.Random(8700 + ctx.n)
    bases = [rng.randrange(2, ctx.order) for _ in range(3)]
    starts = [rng.randrange(1, ctx.order) for _ in range(3)]
    rows = ctx.powers(bases, 300, [1] * 3)
    assert rows.shape == (3, 300)
    for base, start, row, scaled in zip(bases, starts, rows, ctx.powers(bases, 300, starts)):
        assert row.tolist() == ctx.powers([base], 300, [1])[0].tolist()
        assert scaled.tolist() == ctx.powers([base], 300, [start])[0].tolist()
    assert ctx.powers([], 300, []).shape == (0, 300)
    # one start per base: a single start is not spread over two bases
    with pytest.raises(ValueError):
        ctx.powers(bases[:2], 300, [1])


@pytest.mark.parametrize("count", [0, 1, 5, 31, 32, 100])
def test_scalar_tables_are_scalar_mul_vec(ctx, count):
    rng = random.Random(8800 + ctx.n + count)
    scalars = [rng.randrange(ctx.order) for _ in range(count)]
    sample = np.array(rng.sample(range(ctx.order), min(ctx.order, 64)), dtype=np.uint32)
    # a stretch as long as the last block of a walk at n = 16, drawn from the sample
    picks = np.array(rng.choices(range(len(sample)), k=16383))
    tables = ctx._scalar_tables(scalars)
    assert tables.shape == (count, 2, 2**ctx.m)
    for c, pair in zip(scalars, tables):
        products = np.array([ctx.mul(c, int(x)) for x in sample], dtype=np.uint32)
        for points, want in ((sample, products), (sample[picks], products[picks])):
            assert np.array_equal(ctx._apply(pair, points), want)
            # in place, as the walk steps its runs, and into a slice of a longer row
            arr = points.copy()
            assert ctx._apply(pair, arr, out=arr) is arr and np.array_equal(arr, want)
            row = np.zeros(len(points) + 5, dtype=np.uint32)
            ctx._apply(pair, points, out=row[3:-2])
            assert np.array_equal(row, np.concatenate([[0] * 3, want, [0] * 2]))


def test_subfield_residue_is_frobenius_plus_identity(ctx):
    sample = random.Random(9500 + ctx.n).sample(range(ctx.order), min(64, ctx.order))
    got = ctx._apply(ctx._residue, np.array(sample, dtype=np.uint32))
    assert got.tolist() == [ctx.pow(x, 2**ctx.m) ^ x for x in sample]


KERNELS = {
    "mul_vec": lambda ctx, arr: ctx.mul_vec(np.ones_like(arr), arr),
    "mul_vec_first": lambda ctx, arr: ctx.mul_vec(arr, np.ones_like(arr)),
    "sqr_vec": lambda ctx, arr: ctx.sqr_vec(arr),
    "pow_vec": lambda ctx, arr: ctx.pow_vec(arr, 3),
    "scalar_mul_vec": lambda ctx, arr: ctx.scalar_mul_vec(5, arr),
}


@pytest.mark.parametrize("kernel", list(KERNELS))
@pytest.mark.parametrize("n", [10, 20])
def test_kernels_reject_elements_outside_the_field(kernel, n):
    ctx = field_new(n)
    run = KERNELS[kernel]
    # the element 2^n, and a negative one in a signed array
    for arr, bad in ((np.arange(ctx.order + 1, dtype=np.uint32), ctx.order),
                     (np.array([3, -2, 1], dtype=np.int64), -2)):
        with pytest.raises(ValueError, match=rf"element {bad} .*outside GF\(2\^{n}\)"):
            run(ctx, arr)
    with pytest.raises(ValueError, match="integers"):
        run(ctx, np.array([1.0, 2.0]))
    # in-field arrays of either integer kind, and empty ones, still work
    for arr in (np.arange(ctx.order, dtype=np.uint32)[-5:], np.array([0, 1, 7], dtype=np.int64),
                np.zeros(0, dtype=np.uint32)):
        assert len(run(ctx, arr)) == len(arr)


SCALAR_OPS = {
    "mul": lambda ctx, x: ctx.mul(x, 3),
    "mul_second": lambda ctx, x: ctx.mul(3, x),
    "sqr": lambda ctx, x: ctx.sqr(x),
    "pow": lambda ctx, x: ctx.pow(x, 3),
    "inv": lambda ctx, x: ctx.inv(x),
    "trace": lambda ctx, x: ctx.trace(x),
    "eval_sparse": lambda ctx, x: SparsePoly.from_spec(ctx, "1:3,2:1").eval(x),
    "polar_decompose": lambda ctx, x: polar_decompose(ctx, x),
}


@pytest.fixture
def alarm():
    """Fail a test that runs longer than 5 s, instead of letting it hang."""
    def ring(signum, frame):
        raise TimeoutError("no return within 5 s")

    previous = signal.signal(signal.SIGALRM, ring)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("op", list(SCALAR_OPS))
@pytest.mark.parametrize("bad", [-1, 64, 100])
def test_scalar_ops_reject_elements_outside_the_field(alarm, op, bad):
    # a negative element once looped forever; one above 2^n came back outside the field
    ctx = field_new(6)
    with pytest.raises(ValueError, match=rf"element {bad} .*outside GF\(2\^6\)"):
        SCALAR_OPS[op](ctx, bad)
    # the last element of the field still works
    assert all(0 <= v < ctx.order for v in np.ravel(SCALAR_OPS[op](ctx, 63)))


def assert_trace_form(ctx, gammas):
    """Bit j of the trace form A at gamma is Tr(gamma x^j), and bit 0 is trace_bits()[gamma];
    A permutes the field, which the spectrum engines' verdicts rely on."""
    form, tb = ctx._apply(ctx._trace_tables, ctx.domain()), ctx.trace_bits()
    seen = np.zeros(ctx.order, dtype=bool)
    seen[form] = True
    assert seen.all()
    gammas = np.array(list(gammas), dtype=np.uint32)
    for gamma, image in zip(gammas.tolist(), ctx._apply(ctx._trace_tables, gammas).tolist()):
        assert [image >> j & 1 for j in range(ctx.n)] == [
            ctx.trace(ctx.mul(gamma, 1 << j)) for j in range(ctx.n)]
        assert image & 1 == tb[gamma]


def test_trace_bits_and_subfield_mask(ctx):
    tb = ctx.trace_bits()
    assert tb.shape == (ctx.order,)
    # trace is balanced over the field
    assert int(tb.sum()) == ctx.order // 2
    sample = random.Random(9000 + ctx.n).sample(range(ctx.order), min(40, ctx.order))
    for x in sample:
        assert int(tb[x]) == ctx.trace(x)
    assert_trace_form(ctx, sample)
    mask = ctx.subfield_mask()
    assert int(mask.sum()) == 2**ctx.m  # GF(2^m) has exactly 2^m elements
    rows = np.array(sample[:12], dtype=np.uint32).reshape(3, 4)
    assert (ctx._apply(ctx._residue, rows) == 0).tolist() == mask[rows].tolist()
    for x in sample:
        assert bool(mask[x]) == (ctx.pow(x, 2**ctx.m) == x)


@pytest.mark.parametrize("n", SUPPORTED_N)
def test_trace_form_from_the_modulus_matches_scalar_traces(n):
    # Newton's identities read Tr(x^k) off the modulus; the scalar trace squares its way there
    ctx = field_new(n)
    lo, hi = ctx._trace_tables
    images = [int(lo[1 << i] if i < ctx.m else hi[1 << (i - ctx.m)]) for i in range(ctx.n)]
    assert images == [sum(ctx.trace(ctx.mul(1 << i, 1 << j)) << j for j in range(ctx.n))
                      for i in range(ctx.n)]


# -- exponent canonicalization and sparse polynomials -------------------------


def test_canonical_exponent_values():
    assert canonical_exponent(1, 6) == 1
    assert canonical_exponent(63, 6) == 63
    assert canonical_exponent(64, 6) == 1
    assert canonical_exponent(126, 6) == 63
    assert canonical_exponent(73, 6) == 10
    with pytest.raises(ValueError):
        canonical_exponent(0, 6)
    with pytest.raises(ValueError):
        canonical_exponent(-5, 6)


def test_canonical_exponent_preserves_the_map():
    ctx = field_new(4)
    for k in range(1, 50):
        kc = canonical_exponent(k, 4)
        for x in range(ctx.order):
            assert ctx.pow(x, k) == ctx.pow(x, kc)


def test_sparse_poly_canonical_form():
    ctx = field_new(6)
    p = SparsePoly.make(ctx, [(3, 70), (5, 7), (6, 7)])
    # 70 reduces to 7 mod 63, so all three terms merge: 3 ^ 5 ^ 6 = 0
    assert p.terms == ()
    q = SparsePoly.make(ctx, [(1, 52), (2, 10)])
    assert q.terms == ((2, 10), (1, 52))
    assert q.exponents() == (10, 52)


def test_sparse_poly_reduction_preserves_evaluation():
    ctx = field_new(4)
    rng = random.Random(11)
    for _ in range(20):
        terms = [(rng.randrange(1, 16), rng.randrange(1, 60)) for _ in range(3)]
        p = SparsePoly.make(ctx, terms)
        for x in range(16):
            direct = 0
            for c, e in terms:
                direct ^= ctx.mul(c, ctx.pow(x, e))
            assert p.eval(x) == direct


def test_sparse_poly_validation():
    ctx = field_new(4)
    with pytest.raises(ValueError):
        SparsePoly.make(ctx, [(16, 1)])  # coefficient outside the field
    with pytest.raises(ValueError, match="element -1 \\(-0x1\\) outside GF\\(2\\^4\\)"):
        SparsePoly.make(ctx, [(-1, 1)])
    with pytest.raises(ValueError):
        SparsePoly.make(ctx, [(1, 0)])  # constant terms unsupported


def test_sparse_poly_spec_round_trip():
    ctx = field_new(6)
    p = SparsePoly.from_spec(ctx, "1:10,2c:52")
    assert p.terms == ((1, 10), (0x2C, 52))
    assert p.to_spec() == "1:10,2c:52"
    assert SparsePoly.from_spec(ctx, p.to_spec()) == p
    for bad in ("", "1", "1:2:3", "zz:4", "1:x", "1:10,,2:5"):
        with pytest.raises(ValueError):
            SparsePoly.from_spec(ctx, bad)


def test_sparse_poly_plus_x():
    ctx = field_new(6)
    p = SparsePoly.from_spec(ctx, "7:43")
    q = p.plus_x()
    assert q.terms == ((1, 1), (7, 43))
    # adding x to a poly that already has an x term cancels it
    r = SparsePoly.make(ctx, [(1, 1), (3, 5)]).plus_x()
    assert r.terms == ((3, 5),)


def test_has_unit_pivot():
    ctx = field_new(4)
    assert SparsePoly.make(ctx, [(1, 7)]).has_unit_pivot()  # gcd(7,15)=1
    assert not SparsePoly.make(ctx, [(1, 3), (2, 5)]).has_unit_pivot()


def test_eval_sparse_zero_poly():
    ctx = field_new(4)
    p = SparsePoly.make(ctx, [])
    assert p.eval(7) == 0


def test_whole_domain_tables_peak_memory_at_n20():
    for table in (FieldCtx.trace_bits, FieldCtx.subfield_mask):
        ctx = field_new(20)
        tracemalloc.start()
        try:
            out = table(ctx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (ctx.order,) and out.itemsize == 1
        # the 1 MiB result and two 2^m-entry tables; over the uint32 domain it was 24 MiB
        assert peak <= 2 * 2**20

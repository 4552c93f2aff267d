"""Acceptance gate: nine end-to-end criteria, one test and one printed
pass/fail line each.

Each criterion re-derives its expected outcome independently (brute force,
big-integer gcd, direct character sums) rather than trusting the module under
test, and the scans that back the constructive families must come back with
zero failures inside fixed runtime budgets.
"""

import random
from functools import lru_cache
from math import gcd
from time import perf_counter

from nihoperm import cli
from nihoperm.exponents import (
    gcd_mersenne_like,
    gcd_p_2k1_guaranteed_one,
)
from nihoperm.families import (
    _sweep,
    gen_cpp_class,
    gen_prop1,
    scan_families,
)
from nihoperm.gf2n import SparsePoly, canonical_exponent, field_new
from nihoperm.spectra import (
    char_sum,
    exp_sum_via_niho,
    is_cpp,
    is_permutation_brute,
    is_pp_charsum,
    unique_solution_check,
)
from nihoperm.unit_circle import build_unit_circle


def announce(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"acceptance criterion {num} failed: {detail}"


@lru_cache(maxsize=None)
def charsum_corpus(n):
    """50 seeded random sparse polynomials (<= 3 terms) over GF(2^n); shared
    between criteria 6 and 9."""
    ctx = field_new(n)
    rng = random.Random(1000 + n)
    polys = []
    for _ in range(50):
        exps = rng.sample(range(1, ctx.mult_order + 1), rng.randint(1, 3))
        polys.append(
            SparsePoly.make(ctx, [(rng.randint(1, ctx.order - 1), e) for e in exps])
        )
    return tuple(polys)


def test_acceptance_1_conjectured_trinomials(capsys):
    t0 = perf_counter()
    code = cli.main(["conjecture", "--m", "3,5,7,9"])
    elapsed = perf_counter() - t0
    out = capsys.readouterr().out
    lines = out.splitlines()
    verdicts = [line for line in lines if " verdict=" in line]
    ok = (
        code == 0
        and len(verdicts) == 8
        and all(line.endswith("verdict=true") for line in verdicts)
        and lines[-1] == "all_pp=true"
        and elapsed < 10.0
    )
    announce(capsys, 1, ok, f"8/8 trinomials permute for m=3,5,7,9 in {elapsed:.2f}s (< 10s)")


def test_acceptance_2_binomial_family_soundness(capsys):
    t0 = perf_counter()
    m3 = scan_families([3], families=("thm1",))
    t_m3 = perf_counter() - t0
    fail3 = sum(1 for _, rep in m3 if not rep.verdict)

    t0 = perf_counter()
    m5 = scan_families(
        [5], budget=200, families=("thm1",),
        s_range=(0, 15), l_range=(0, 15), e_range=(0, 15), seed=7,
    )
    t_m5 = perf_counter() - t0
    fail5 = sum(1 for _, rep in m5 if not rep.verdict)
    tuples5 = {(i.niho.s, i.niho.l, i.niho.e) for i, _ in m5}

    ok = (
        len(m3) > 0 and fail3 == 0 and t_m3 < 60.0
        and len(tuples5) >= 200 and fail5 == 0 and t_m5 < 120.0
    )
    announce(
        capsys, 2, ok,
        f"m=3 exhaustive: {len(m3)} binomials, {fail3} failures in {t_m3:.2f}s (< 60s); "
        f"m=5 sampled: {len(tuples5)} tuples / {len(m5)} binomials, {fail5} failures "
        f"in {t_m5:.2f}s (< 120s)",
    )


def test_acceptance_3_explicit_cases_double_checked(capsys):
    t0 = perf_counter()
    total = failures = 0
    cases_seen = {3: set(), 5: set()}
    for m in (3, 5):
        ctx = field_new(2 * m)
        circle = build_unit_circle(ctx)
        for case, _m, k1, k2, k3 in _sweep("prop1", m, k_max=6):
            cases_seen[m].add(case)
            for inst in gen_prop1(case, m, k1, k2, k3, ctx, circle):
                total += 1
                brute_ok = is_permutation_brute(inst.poly).verdict
                circle_ok = unique_solution_check(inst.niho, inst.u).verdict
                if not (brute_ok and circle_ok):
                    failures += 1
    elapsed = perf_counter() - t0
    ok = failures == 0 and cases_seen[3] == cases_seen[5] == {1, 2, 3, 4, 5, 6}
    announce(
        capsys, 3, ok,
        f"all six cases at m=3,5 with k<=6: {total} binomials pass brute force and "
        f"the unit-circle check, {failures} failures in {elapsed:.2f}s",
    )


def test_acceptance_4_cpp_classes(capsys):
    t0 = perf_counter()
    total = failures = 0
    ids = {3: set(), 5: set(), 7: set()}
    for m in (3, 5, 7):
        ctx = field_new(2 * m)
        circle = build_unit_circle(ctx)
        for cls, _m, k in _sweep("cpp-class", m, k_max=6):
            for inst in gen_cpp_class(cls, m, k, ctx, circle):
                total += 1
                ids[m].add(inst.family_id)
                if not is_cpp(inst.poly).verdict:
                    failures += 1
    elapsed = perf_counter() - t0
    ok = (
        failures == 0
        and elapsed < 120.0
        and ids[3] == {"CPP_CLASS1", "CPP_CLASS3", "CPP_CLASS4", "CPP_CLASS5", "CPP_CLASS6"}
        and ids[5] == {"CPP_CLASS1", "CPP_CLASS4", "CPP_CLASS5", "CPP_CLASS6"}  # class 3 skipped
        and ids[7] == {"CPP_CLASS1", "CPP_CLASS3", "CPP_CLASS4", "CPP_CLASS5", "CPP_CLASS6"}
    )
    announce(
        capsys, 4, ok,
        f"closed-form classes at m=3,5,7 (class 3 skipped at m=5): {total} monomials, "
        f"{failures} is_cpp failures in {elapsed:.2f}s (< 120s)",
    )


def test_acceptance_5_collapsed_sum_identity(capsys):
    checked = mismatches = 0
    for n in (4, 6, 8, 10):
        ctx = field_new(n)
        m = ctx.m
        circle = build_unit_circle(ctx)
        rng = random.Random(500 + n)
        coprime = [d for d in range(1, ctx.mult_order) if gcd(d, ctx.mult_order) == 1]
        for _ in range(100):
            d1 = rng.choice(coprime)
            extra = rng.randint(1, 2)  # 2 or 3 terms in total
            ts = rng.sample(range(1, 2**m + 1), extra)
            ds = [canonical_exponent(d1 + t * (2**m - 1), n) for t in ts]
            ws = [rng.randint(1, ctx.order - 1) for _ in ds]
            g = SparsePoly.make(ctx, [(1, d1)] + list(zip(ws, ds)))
            checked += 1
            if exp_sum_via_niho(ctx, [d1] + ds, ws) != char_sum(g, 1):
                mismatches += 1
    ok = checked == 400 and mismatches == 0
    announce(
        capsys, 5, ok,
        f"unit-circle collapse equals the direct character sum in {checked}/400 "
        f"seeded instances over n=4,6,8,10 ({mismatches} mismatches)",
    )


def test_acceptance_6_charsum_equals_brute(capsys):
    checked = disagreements = 0
    for n in (4, 6, 8):
        for f in charsum_corpus(n):
            checked += 1
            if is_pp_charsum(f).verdict != is_permutation_brute(f).verdict:
                disagreements += 1
    ok = checked == 150 and disagreements == 0
    announce(
        capsys, 6, ok,
        f"character-sum and brute-force verdicts agree on {checked}/150 seeded "
        f"polynomials over n=4,6,8 ({disagreements} disagreements)",
    )


def test_acceptance_7_gcd_closed_forms(capsys):
    checked = mismatches = 0
    for r in range(1, 21):
        for s in range(1, 21):
            for sr in (-1, 1):
                for ss in (-1, 1):
                    checked += 1
                    if gcd_mersenne_like(r, sr, s, ss) != gcd(2**r + sr, 2**s + ss):
                        mismatches += 1
    ok = checked == 1600 and mismatches == 0
    announce(
        capsys, 7, ok,
        f"gcd closed forms match big-integer gcd on {checked}/1600 (r, s, sign) "
        f"combinations ({mismatches} mismatches)",
    )


def test_acceptance_8_coprimality_guarantee(capsys):
    primes = [p for p in range(3, 100, 2) if all(p % f for f in range(3, p, 2))]
    checked = guaranteed = violations = 0
    for p in primes:
        for k in range(1, 41):
            checked += 1
            if gcd_p_2k1_guaranteed_one(p, k):
                guaranteed += 1
                if gcd(p, 2**k + 1) != 1:
                    violations += 1
    ok = violations == 0 and guaranteed > 0
    announce(
        capsys, 8, ok,
        f"order-based coprimality guarantee holds in {guaranteed}/{checked} "
        f"(p, k) pairs where it applies ({violations} violations)",
    )


def test_acceptance_9_parseval_for_permutations(capsys):
    checked = mismatches = 0
    pp_per_n = {}
    for n in (4, 6, 8):
        ctx = field_new(n)
        pps = [f for f in charsum_corpus(n) if is_permutation_brute(f).verdict]
        pp_per_n[n] = len(pps)
        for f in pps:
            checked += 1
            total = sum(char_sum(f, gamma) ** 2 for gamma in range(ctx.order))
            if total != 2 ** (2 * n):
                mismatches += 1
    ok = mismatches == 0 and all(count > 0 for count in pp_per_n.values())
    announce(
        capsys, 9, ok,
        f"sum of squared character sums is exactly 2^(2n) for all {checked} "
        f"permutations in the criterion-6 corpus ({mismatches} mismatches; "
        f"per-n counts {pp_per_n})",
    )

"""Constructive families: parameter validation, instance generation, sweeps.

Known parameter tuples are pinned to their expected exponents and instance
counts, and every generated instance is re-verified by brute force so a wrong
condition check cannot slip through as a "successful" generation.
"""

import io
import json
from math import gcd

import pytest

from nihoperm import families
from nihoperm.exponents import make_niho
from nihoperm.families import (
    CPP,
    CSV_COLUMNS,
    FAMILY_GROUPS,
    PP,
    FamilyInstance,
    check_prop3,
    check_theorem1,
    conjecture_trinomials,
    cpp_class_params,
    gen_conjecture,
    gen_cpp_class,
    gen_cpp_cor2,
    gen_prop1,
    gen_prop3,
    gen_theorem1,
    instance_row,
    instance_to_obj,
    prop1_params,
    scan_families,
    scan_to_csv,
    scan_to_jsonl,
    _sweep,
)
from nihoperm.gf2n import FieldCtx, SparsePoly, field_new
from nihoperm.spectra import is_cpp, is_permutation_brute, unique_solution_check
from nihoperm.unit_circle import build_unit_circle, complement_coset


@pytest.fixture(scope="module")
def ctx6():
    return field_new(6)


@pytest.fixture(scope="module")
def circle6(ctx6):
    return build_unit_circle(ctx6)


# -- binomial conditions -------------------------------------------------------


def test_check_theorem1_worked_example():
    cond = check_theorem1(make_niho(3, 1, 3, 3))
    assert cond.gcd_d1_ok and cond.r == 3 and cond.r_ok and cond.cond_ii_ok
    assert cond.eligible_u_count == 6
    assert cond.all_ok


def test_check_theorem1_failure_modes():
    assert not check_theorem1(make_niho(3, 1, 1, 3)).r_ok
    assert not check_theorem1(make_niho(3, 1, 3, 7)).gcd_d1_ok  # gcd(e, 2^m-1) = 7
    cond = check_theorem1(make_niho(5, 13, 3, 1))  # e + l - 2s = -22, shares 11
    assert cond.gcd_d1_ok and cond.r_ok and not cond.cond_ii_ok


@pytest.mark.parametrize("m, s, l, e", [
    (3, 1, 3, 7),   # gcd(d1, 2^n - 1) = 1 fails
    (3, 1, 1, 3),   # condition (i) fails
    (5, 13, 3, 1),  # condition (ii) fails
])
def test_one_theorem1_predicate_one_message(m, s, l, e):
    params = make_niho(m, s, l, e)
    u = complement_coset(build_unit_circle(field_new(2 * m)), 3)[0]
    with pytest.raises(ValueError) as from_generator:
        gen_theorem1(params)
    with pytest.raises(ValueError) as from_engine:
        unique_solution_check(params, u)
    assert str(from_engine.value) == str(from_generator.value)


def test_gen_theorem1_instances(ctx6, circle6):
    p = make_niho(3, 1, 3, 3)
    insts = gen_theorem1(p, ctx6, circle6)
    assert len(insts) == 6
    assert {i.u for i in insts} == set(complement_coset(circle6, 3))
    for inst in insts:
        assert inst.family_id == "THM1" and inst.claim == PP
        assert inst.m == 3 and inst.niho is p
        assert inst.poly.terms == ((1, 10), (inst.u, 52))
        assert is_permutation_brute(inst.poly).verdict


def test_gen_theorem1_rejects_bad_params(ctx6, circle6):
    with pytest.raises(ValueError, match=r"condition \(i\) r:=gcd\(l"):
        gen_theorem1(make_niho(3, 1, 1, 3), ctx6, circle6)
    with pytest.raises(ValueError, match=r"gcd\(d1,2\^n-1\)=1 failed"):
        gen_theorem1(make_niho(3, 1, 3, 7), ctx6, circle6)
    with pytest.raises(ValueError, match=r"condition \(ii\)"):
        gen_theorem1(make_niho(5, 13, 3, 1))
    with pytest.raises(ValueError, match="does not match"):
        gen_theorem1(make_niho(3, 1, 3, 3), field_new(8))


GENERATORS_M3 = {
    "thm1": lambda ctx, circle: gen_theorem1(make_niho(3, 1, 3, 3), ctx, circle),
    "prop1": lambda ctx, circle: gen_prop1(1, 3, 1, 1, 1, ctx, circle),
    "prop3": lambda ctx, circle: gen_prop3(3, 6, ctx, circle),
    "cor2": lambda ctx, circle: gen_cpp_cor2(3, 6, ctx, circle),
    "cpp-class": lambda ctx, circle: gen_cpp_class(3, 3, None, ctx, circle),
}


@pytest.mark.parametrize("group", sorted(GENERATORS_M3))
def test_generators_reject_a_foreign_field_or_circle(group, ctx6):
    gen = GENERATORS_M3[group]
    with pytest.raises(ValueError, match=r"FieldCtx\(n=8, .*does not match"):
        gen(field_new(8), None)
    for n in (4, 8):
        with pytest.raises(ValueError, match=rf"circle of FieldCtx\(n={n}, .*does not match"):
            gen(ctx6, build_unit_circle(field_new(n)))
    with pytest.raises(ValueError, match="does not match"):
        gen(None, build_unit_circle(field_new(4)))
    # an equal field built separately is accepted, circle included
    assert gen(field_new(6), build_unit_circle(field_new(6))) == gen(None, None)


# -- the six explicit r = 3 cases ------------------------------------------------


def test_prop1_params_worked_examples():
    assert prop1_params(1, 3, 1, 1, 1) == make_niho(3, 1, 3, 3)
    p = prop1_params(3, 3, 1)
    assert (p.e, p.s, p.l, p.d1) == (5, 3, 3, 26)
    p = prop1_params(4, 3, 2)
    assert (p.e, p.s, p.l, p.d1) == (9, 4, 3, 37)
    p = prop1_params(5, 3, 1)
    assert (p.e, p.s, p.l, p.d1) == (3, 2, 3, 17)
    p = prop1_params(2, 3, 2, 0, 0)
    assert (p.e, p.s, p.l) == (2, 0, 3)


def test_prop1_params_validation():
    with pytest.raises(ValueError, match="case must be"):
        prop1_params(0, 3, 1)
    with pytest.raises(ValueError, match="m must be odd"):
        prop1_params(1, 4, 1, 1, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        prop1_params(1, 3, -1, 1, 1)
    with pytest.raises(ValueError, match="requires k2 and k3"):
        prop1_params(1, 3, 1)
    with pytest.raises(ValueError, match="requires odd k1"):
        prop1_params(3, 3, 2)
    with pytest.raises(ValueError, match="requires even k1"):
        prop1_params(4, 3, 1)
    with pytest.raises(ValueError, match="requires odd k2"):
        prop1_params(1, 3, 1, 2, 1)
    with pytest.raises(ValueError, match="k2 and k3 must be nonnegative"):
        prop1_params(1, 3, 1, -1, 1)
    with pytest.raises(ValueError, match=r"gcd\(k1,m\)=1"):
        prop1_params(3, 3, 3)
    with pytest.raises(ValueError, match=r"gcd\(k1\(k1\+1\),m\)=1"):
        prop1_params(6, 3, 2)  # k1*(k1+1) = 6 shares 3 with m = 3
    with pytest.raises(ValueError, match="nonnegative integer s"):
        prop1_params(1, 3, 1, 3, 1)  # s = 1 - 4 + 1 = -2
    with pytest.raises(ValueError, match="nonnegative integer s"):
        prop1_params(1, 3, 1, 1, 0)  # s = 1/2 - 1 + 1 is fractional
    with pytest.raises(ValueError, match="case 6 does not depend on k3, got k3=0"):
        prop1_params(6, 5, 2, None, 0)


def test_prop1_sweep_always_lands_on_r3():
    for m in (3, 5):
        tuples = _sweep("prop1", m, k_max=4)
        assert tuples, f"no case parameters found for m={m}"
        for case, _m, k1, k2, k3 in tuples:
            cond = check_theorem1(prop1_params(case, m, k1, k2, k3))
            assert cond.all_ok and cond.r == 3, (case, k1, k2, k3)


def test_gen_prop1_relabels_instances(ctx6, circle6):
    insts = gen_prop1(1, 3, 1, 1, 1, ctx6, circle6)
    assert len(insts) == 6
    for inst in insts:
        assert inst.family_id == "PROP1_CASE1"
        assert (inst.k1, inst.k2, inst.k3) == (1, 1, 1)
        assert inst.claim == PP
        assert is_permutation_brute(inst.poly).verdict
        rep = unique_solution_check(inst.niho, inst.u)
        assert rep.verdict


# -- the l = s, e = 1 specialization and its CPPs ---------------------------------


def test_check_prop3_worked_examples():
    assert check_prop3(3, 6).all_ok
    assert make_niho(3, 6, 6, 1).d1 == 43
    assert not check_prop3(3, 2).all_ok
    assert not check_prop3(3, 2).r_ok
    assert check_prop3(5, 3).all_ok
    assert make_niho(5, 3, 3, 1).d1 == 94


def test_gen_prop3_instances(ctx6, circle6):
    insts = gen_prop3(3, 6, ctx6, circle6)
    assert len(insts) == 6
    for inst in insts:
        assert inst.family_id == "PROP3" and inst.claim == PP
        assert inst.poly.terms == ((inst.u, 1), (1, 43))
        assert is_permutation_brute(inst.poly).verdict


def test_gen_prop3_error_mentions_s():
    with pytest.raises(ValueError, match=r"r:=gcd\(s,2\^m\+1\)>1 failed \(s=1"):
        gen_prop3(3, 1)
    with pytest.raises(ValueError, match=r"gcd\(d1,2\^n-1\)=1 failed"):
        gen_prop3(3, 2)  # d1 = 15 shares 3 with 63, reported before (i)
    with pytest.raises(ValueError, match=r"gcd\(s-1,2\^m\+1\)=1 failed"):
        gen_prop3(5, 12)  # r = gcd(12, 33) = 3 but s - 1 = 11 shares 11


def test_prop3_is_a_theorem1_specialization(ctx6, circle6):
    via_prop3 = gen_prop3(3, 6, ctx6, circle6)
    via_thm1 = gen_theorem1(make_niho(3, 6, 6, 1), ctx6, circle6)
    assert [i.poly for i in via_prop3] == [i.poly for i in via_thm1]
    assert [i.u for i in via_prop3] == [i.u for i in via_thm1]


def test_gen_cpp_cor2_counts_and_verdicts(ctx6, circle6):
    insts = gen_cpp_cor2(3, 6, ctx6, circle6)
    assert len(insts) == 6
    for inst in insts:
        assert inst.family_id == "COR2_CPP" and inst.claim == CPP
        assert inst.poly.terms == ((ctx6.inv(inst.u), 43),)
        assert is_cpp(inst.poly).verdict
    insts10 = gen_cpp_cor2(5, 3)
    assert len(insts10) == 22  # 33 circle points minus 11 cubes
    for inst in insts10:
        assert is_cpp(inst.poly).verdict


# -- closed-form CPP classes -------------------------------------------------------


def test_cpp_class_params_worked_examples():
    assert cpp_class_params(3, 3) == (6, 3)
    assert cpp_class_params(4, 3) == (15, 3)
    assert make_niho(3, 15, 15, 1).d1 == 43
    assert cpp_class_params(5, 3) == (63, 3)
    assert cpp_class_params(6, 3) == (6, 3)
    assert cpp_class_params(1, 3, 3) == (9, 9)
    assert cpp_class_params(1, 5, 3) == (9, 3)
    assert cpp_class_params(2, 4, 4) == (17, 17)
    assert cpp_class_params(2, 6, 2) == (5, 5)


def test_cpp_class_params_validation():
    with pytest.raises(ValueError, match="class must be"):
        cpp_class_params(7, 3)
    with pytest.raises(ValueError, match="requires k"):
        cpp_class_params(1, 3)
    with pytest.raises(ValueError, match="odd m and k"):
        cpp_class_params(1, 3, 2)
    with pytest.raises(ValueError, match="class 1 requires k >= 0, got k=-1"):
        cpp_class_params(1, 3, -1)
    with pytest.raises(ValueError, match="even m"):
        cpp_class_params(2, 3, 2)
    with pytest.raises(ValueError, match="odd, got k=2, m=8"):
        cpp_class_params(2, 8, 2)  # m/gcd = 4 is even
    with pytest.raises(ValueError, match="5 ∤ m"):
        cpp_class_params(3, 5)
    with pytest.raises(ValueError, match="odd m"):
        cpp_class_params(4, 4)
    for cls in (3, 4, 5, 6):
        with pytest.raises(ValueError, match=f"class {cls} does not depend on k, got k=5"):
            cpp_class_params(cls, 3, 5)


def test_gen_cpp_class_instances(ctx6, circle6):
    insts = gen_cpp_class(3, 3, None, ctx6, circle6)
    assert len(insts) == 6
    for inst in insts:
        assert inst.family_id == "CPP_CLASS3" and inst.k1 is None
        assert is_cpp(inst.poly).verdict
    # k = m collapses the exponent to 1; the maps are still CPPs
    insts = gen_cpp_class(1, 3, 3, ctx6, circle6)
    assert len(insts) == 8
    for inst in insts:
        assert inst.poly.terms[0][1] == 1
        assert is_cpp(inst.poly).verdict


def test_gen_cpp_class2_even_m():
    insts = gen_cpp_class(2, 4, 4)
    assert len(insts) == 16  # r = 17 = whole circle group: all u != 1
    for inst in insts:
        assert inst.family_id == "CPP_CLASS2"
        assert is_cpp(inst.poly).verdict


# -- conjectured trinomials ---------------------------------------------------------


def test_conjecture_trinomial_shapes(ctx6):
    f, g = conjecture_trinomials(3, ctx6)
    assert f.exponents() == (12, 19, 33)
    assert g.exponents() == (8, 15, 57)
    assert all(c == 1 for c, _ in f.terms + g.terms)


def test_conjecture_validation(ctx6):
    with pytest.raises(ValueError, match="odd"):
        conjecture_trinomials(4)
    with pytest.raises(ValueError, match="odd"):
        conjecture_trinomials(1)
    with pytest.raises(ValueError, match="does not match"):
        conjecture_trinomials(5, ctx6)


def test_gen_conjecture_instances(ctx6):
    insts = gen_conjecture(3, ctx6)
    assert [i.family_id for i in insts] == ["CONJ_F", "CONJ_G"]
    assert all(i.claim == PP for i in insts)
    assert all(is_permutation_brute(i.poly).verdict for i in insts)


# -- sweeps -----------------------------------------------------------------------


def test_scan_families_empty_and_unknown_group():
    assert scan_families([]) == []
    with pytest.raises(ValueError, match="unknown family group"):
        scan_families([3], families=("thm1", "prop2"))


def test_scan_families_refuses_every_m_before_it_scans_any(monkeypatch):
    calls = []
    monkeypatch.setattr(families, "is_permutation_brute", lambda poly: calls.append(poly))
    with pytest.raises(ValueError, match="n=22"):
        scan_families([3, 11])
    assert calls == []


def test_scan_families_rejects_budget_and_k_max_below_range():
    # a zero budget used to verify nothing, a negative one to fail inside
    # random.sample, and a negative k_max to empty two sweeps quietly
    for budget in (0, -1):
        with pytest.raises(ValueError, match="budget"):
            scan_families([5], budget)
    with pytest.raises(ValueError, match="k_max"):
        scan_families([3], k_max=-1)
    assert scan_families([3], 1, families=("cpp-class",), k_max=0)


def test_scan_families_m3_all_verified(monkeypatch):
    # one field for the one m: the generators compare the ctx they get, not rebuild it
    field_new.cache_clear()
    built = []
    init = FieldCtx.__init__
    monkeypatch.setattr(FieldCtx, "__init__", lambda ctx, *a: built.append(a) or init(ctx, *a))
    records = scan_families([3])
    assert built == [(6,)]
    assert records
    ids = {inst.family_id for inst, _ in records}
    assert {
        "THM1", "PROP3", "COR2_CPP", "CPP_CLASS3", "CPP_CLASS4",
        "CPP_CLASS5", "CPP_CLASS6", "CONJ_F", "CONJ_G",
    } <= ids
    assert any(i.startswith("PROP1_CASE") for i in ids)
    failures = [(inst, rep) for inst, rep in records if not rep.verdict]
    assert failures == []
    for inst, rep in records:
        assert rep.engine == "brute"


def test_scan_families_deduplicates_verification():
    # l = 0 and l = 9 give the same merged binomial for every (s, e); the
    # cached report object must be shared between the two provenances
    records = scan_families([3], families=("thm1",))
    by_key = {}
    shared = 0
    for inst, rep in records:
        key = (inst.poly.terms, inst.u)
        if key in by_key:
            assert by_key[key] is rep
            shared += 1
        by_key[key] = rep
    assert shared > 0


def test_scan_families_even_m_skips_odd_only_groups():
    records = scan_families([2])
    ids = {inst.family_id for inst, _ in records}
    assert not any(i.startswith("PROP1") for i in ids)
    assert "CONJ_F" not in ids
    assert all(rep.verdict for _, rep in records)


def test_scan_budget_sampling_is_deterministic_and_skips_m3():
    full = scan_families([5], families=("prop3",))
    budgeted = scan_families([5], budget=2, families=("prop3",))
    s_full = {inst.niho.s for inst, _ in full}
    s_budget = {inst.niho.s for inst, _ in budgeted}
    assert len(s_budget) == 2 and s_budget <= s_full
    again = scan_families([5], budget=2, families=("prop3",))
    assert [inst.poly.terms for inst, _ in budgeted] == [
        inst.poly.terms for inst, _ in again
    ]
    exhaustive = scan_families([3], budget=1, families=("prop3",))
    unbudgeted = scan_families([3], families=("prop3",))
    assert [i.poly.terms for i, _ in exhaustive] == [i.poly.terms for i, _ in unbudgeted]


# -- serialization ------------------------------------------------------------------


def test_csv_output_shape_and_determinism():
    records = scan_families([3], families=("conj", "prop3"))
    buf1, buf2 = io.StringIO(), io.StringIO()
    scan_to_csv(records, buf1)
    scan_to_csv(scan_families([3], families=("conj", "prop3")), buf2)
    assert buf1.getvalue() == buf2.getvalue()  # byte-identical without timing
    lines = buf1.getvalue().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(r) == len(CSV_COLUMNS) for r in rows)
    conj = [r for r in rows if r[0] == "CONJ_F"]
    assert conj == [["CONJ_F", "3", "", "", "", "", "", "", "", "", "", "PP", "true", ""]]
    prop3 = [r for r in rows if r[0] == "PROP3"]
    assert prop3 and all(
        r[2] == r[3] and r[4] == "1" and r[8].startswith("0x") and r[12] == "true"
        for r in prop3
    )


def test_csv_timing_column_only_on_request():
    records = scan_families([3], families=("conj",))
    buf = io.StringIO()
    scan_to_csv(records, buf, timing=True)
    rows = buf.getvalue().splitlines()[1:]
    assert all(float(r.rsplit(",", 1)[1]) >= 0.0 for r in rows)


def test_jsonl_output_shape():
    records = scan_families([3], families=("conj",))
    buf = io.StringIO()
    scan_to_jsonl(records, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == len(records) == 2
    objs = [json.loads(line) for line in lines]
    assert [o["family_id"] for o in objs] == ["CONJ_F", "CONJ_G"]
    for o in objs:
        assert o["params"] is None and o["u"] is None
        assert o["claims"] == ["PP"]
        assert o["report"]["engine"] == "brute"
        assert o["report"]["verdict"] is True
        assert o["report"]["witness"] is None
        assert "elapsed_ms" not in o["report"]
        assert o["report"]["field"]["n"] == 6
    assert objs[0]["poly"] == "1:12,1:19,1:33"
    assert objs[1]["poly"] == "1:8,1:15,1:57"


def test_jsonl_thm1_params_block(ctx6, circle6):
    inst = gen_theorem1(make_niho(3, 1, 3, 3), ctx6, circle6)[0]
    obj = instance_to_obj(inst)
    assert obj["params"] == {"s": 1, "l": 3, "e": 3, "d1": 10, "d2": 52}
    assert obj["u"] == f"0x{inst.u:x}"
    assert obj["poly"].endswith(":52")


def test_instance_row_blanks_without_report(ctx6, circle6):
    inst = gen_theorem1(make_niho(3, 1, 3, 3), ctx6, circle6)[0]
    row = instance_row(inst)
    assert row[0] == "THM1" and row[-2] == "" and row[-1] == ""
    assert row[CSV_COLUMNS.index("claim")] == "PP"


def test_family_groups_frozen():
    assert FAMILY_GROUPS == ("thm1", "prop1", "prop3", "cor2", "cpp-class", "conj")
    inst = FamilyInstance("X", 3, SparsePoly.make(field_new(6), [(1, 7)]), CPP)
    assert instance_row(inst)[CSV_COLUMNS.index("claim")] == "CPP"

"""Constructive families of permutation binomials and monomial CPPs.

Every family is a special case of Theorem 1, whose conditions live in
``exponents.check_theorem1``.  Each generator turns a validated parameter
tuple into concrete polynomial instances over GF(2^n), n = 2m:

* theorem-1 binomials   x^d1 + u*x^d2 with d1 = s*(2^m-1)+e,
  d2 = (s-l)*(2^m-1)+e, and u ranging over the non-r-th-powers of the
  unit circle (``gen_theorem1``);
* six explicit parameter cases (``prop1_params``) hitting those conditions
  with r = 3, driven by powers of two k1, k2, k3;
* the l = s, e = 1 specialization (``check_prop3``/``gen_prop3``) whose
  binomials are x^d1 + u*x, and its complete-permutation corollary
  u^(-1)*x^d1 (``gen_cpp_cor2``);
* six closed-form CPP classes (``cpp_class_params``) giving s directly;
* two trinomial shapes conjectured to permute for every odd m
  (``conjecture_trinomials``).

``scan_families`` is one path from a parameter tuple to a record: one sweep
lists every group's generator arguments, one loop generates the instances,
``verify_claim`` checks each distinct polynomial once per field, and
``instance_to_obj`` is the one record that the CSV and JSONL writers print.
Identical polynomials arising from different parameter tuples are verified
once but reported once per provenance.
"""

from __future__ import annotations

import csv
import json
import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

from .exponents import (
    NihoParams,
    Theorem1Conditions,
    _require_theorem1,
    check_theorem1,
    make_niho,
)
from .gf2n import FieldCtx, SparsePoly, field_new
from .spectra import VerificationReport, is_cpp, is_permutation_brute
from .unit_circle import UnitCircle, build_unit_circle, complement_coset

PP = "PP"
CPP = "CPP"

FAMILY_GROUPS = ("thm1", "prop1", "prop3", "cor2", "cpp-class", "conj")


@dataclass(frozen=True)
class FamilyInstance:
    """One concrete polynomial with its construction provenance and claim (PP or CPP)."""

    family_id: str
    m: int
    poly: SparsePoly
    claim: str
    u: int = None
    niho: NihoParams = None
    k1: int = None
    k2: int = None
    k3: int = None


def _field(n: int, ctx: FieldCtx = None) -> FieldCtx:
    """field_new(n), if ``ctx`` is None or equals it; any other ctx is a ValueError naming both."""
    field = field_new(n)
    if ctx not in (None, field):
        raise ValueError(f"field {ctx!r} does not match {field!r} for n={n}")
    return field


def _coset_family(family_id: str, claim: str, p: NihoParams, r: int,
                  ctx: FieldCtx = None, circle: UnitCircle = None, **provenance) -> list:
    """One instance per u in U \\ U^r on the unit circle of p's field.

    A PP claim gets the binomial x^d1 + u*x^d2, a CPP claim the monomial
    u^(-1)*x^d1.  ``ctx`` and ``circle`` default to p's field and its circle
    and must be those.  Both are one per field already; the generators keep
    them as optional positional parameters because ``perfbench/workloads.py``
    passes them, and ``scan_families`` hands over its one circle per m, which
    the benchmark's tests count as one traced ``build_unit_circle`` per m.
    """
    ctx = _field(p.n, ctx)
    if circle is None:
        circle = build_unit_circle(ctx)
    elif circle.ctx != ctx:
        raise ValueError(f"circle of {circle.ctx!r} does not match field {ctx!r}")
    out = []
    for u in complement_coset(circle, r):
        terms = [(1, p.d1), (u, p.d2)] if claim == PP else [(ctx.inv(u), p.d1)]
        poly = SparsePoly.make(ctx, terms)
        out.append(FamilyInstance(family_id, p.m, poly, claim, u=u, niho=p, **provenance))
    return out


def gen_theorem1(p: NihoParams, ctx: FieldCtx = None, circle: UnitCircle = None) -> list:
    """All binomials x^d1 + u*x^d2 that the three conditions certify for this pair."""
    return _coset_family("THM1", PP, p, _require_theorem1(p), ctx, circle)


def prop1_params(case: int, m: int, k1: int, k2: int = None, k3: int = None) -> NihoParams:
    """Exponent parameters for the six explicit r = 3 cases.

    Case table (all with odd m and nonnegative k's; parities alternate):
      1: e = 2^k3 + 1,     s = 2^(k3-1) - 2^(k2-1) + 1,  l = 2^k1 + 1
      2: e = 2^k3 + 1,     s = 2^(k3-1) - 2^(k2-1),      l = 2^k1 - 1
      3: e = 2^(k1+1) + 1, s = 2^k1 + 1,                 l = 2^k1 + 1
      4: e = 2^(k1+1) + 1, s = 2^k1,                     l = 2^k1 - 1
      5: e = 2^(k1+1) - 1, s = 2^k1,                     l = 2^k1 + 1
      6: e = 2^(k1+1) - 1, s = 2^k1 - 1,                 l = 2^k1 - 1
    Odd cases need odd k1 (cases 1-2 also matching-parity k2); cases 1-4 need
    gcd(k1, m) = 1, cases 5-6 gcd(k1*(k1+1), m) = 1.  s must come out a
    nonnegative integer (rules out e.g. case 1 with k3 = 0).  Cases 3-6 take
    no k2 or k3.
    """
    if case not in range(1, 7):
        raise ValueError(f"case must be 1..6, got {case}")
    if m % 2 == 0:
        raise ValueError(f"m must be odd, got {m}")
    if k1 < 0:
        raise ValueError(f"k1 must be nonnegative, got {k1}")
    parity = case % 2
    parity_name = "odd" if parity else "even"
    if k1 % 2 != parity:
        raise ValueError(f"case {case} requires {parity_name} k1, got {k1}")
    if case > 2 and (k2 is not None or k3 is not None):
        name, k = ("k2", k2) if k2 is not None else ("k3", k3)
        raise ValueError(f"case {case} does not depend on {name}, got {name}={k}")
    if case in (1, 2):
        if k2 is None or k3 is None:
            raise ValueError(f"case {case} requires k2 and k3")
        if k2 < 0 or k3 < 0:
            raise ValueError(f"k2 and k3 must be nonnegative, got k2={k2}, k3={k3}")
        if k2 % 2 != parity:
            raise ValueError(f"case {case} requires {parity_name} k2, got {k2}")
        e = 2**k3 + 1
        s = Fraction(2**k3, 2) - Fraction(2**k2, 2) + (1 if case == 1 else 0)
        l = 2**k1 + 1 if case == 1 else 2**k1 - 1
    elif case in (3, 4):
        e = 2 ** (k1 + 1) + 1
        s = Fraction(2**k1 + 1) if case == 3 else Fraction(2**k1)
        l = 2**k1 + 1 if case == 3 else 2**k1 - 1
    else:
        e = 2 ** (k1 + 1) - 1
        s = Fraction(2**k1) if case == 5 else Fraction(2**k1 - 1)
        l = 2**k1 + 1 if case == 5 else 2**k1 - 1
    if case in (1, 2, 3, 4):
        if gcd(k1, m) != 1:
            raise ValueError(f"case {case} requires gcd(k1,m)=1, got gcd({k1},{m})={gcd(k1, m)}")
    else:
        if gcd(k1 * (k1 + 1), m) != 1:
            raise ValueError(
                f"case {case} requires gcd(k1(k1+1),m)=1, got "
                f"gcd({k1 * (k1 + 1)},{m})={gcd(k1 * (k1 + 1), m)}"
            )
    if s.denominator != 1 or s < 0:
        raise ValueError(f"case {case} needs a nonnegative integer s, got {s}")
    params = make_niho(m, int(s), l, e)
    cond = check_theorem1(params)
    if not cond.all_ok or cond.r != 3:
        raise RuntimeError(
            f"case {case} parameters unexpectedly fail the r=3 conditions: {cond}"
        )
    return params


def gen_prop1(
    case: int, m: int, k1: int, k2: int = None, k3: int = None,
    ctx: FieldCtx = None, circle: UnitCircle = None,
) -> list:
    """Binomial instances x^d1 + u*x^d2, u non-cube on the circle, for one case."""
    params = prop1_params(case, m, k1, k2, k3)  # certified with r = 3
    return _coset_family(f"PROP1_CASE{case}", PP, params, 3, ctx, circle, k1=k1, k2=k2, k3=k3)


def check_prop3(m: int, s: int) -> Theorem1Conditions:
    """Conditions for x^(s*(2^m-1)+1) + u*x: the l = s, e = 1 specialization."""
    return check_theorem1(make_niho(m, s, s, 1))


def gen_prop3(m: int, s: int, ctx: FieldCtx = None, circle: UnitCircle = None) -> list:
    """Binomials x^d1 + u*x with d1 = s*(2^m-1)+1, u a non-r-th-power."""
    params = make_niho(m, s, s, 1)  # d2 = 1
    return _coset_family("PROP3", PP, params, _require_theorem1(params, prop3=True), ctx, circle)


def gen_cpp_cor2(m: int, s: int, ctx: FieldCtx = None, circle: UnitCircle = None) -> list:
    """Monomial complete permutations u^(-1)*x^d1 from the same conditions."""
    params = make_niho(m, s, s, 1)
    return _coset_family("COR2_CPP", CPP, params, _require_theorem1(params, prop3=True),
                         ctx, circle)


def cpp_class_params(cls: int, m: int, k: int = None) -> tuple:
    """(s, r) for the six closed-form CPP classes; u must avoid U^r.

      1: s = 2^k + 1, m and k odd (k >= 0), r = 2^gcd(m,k) + 1
      2: s = 2^k + 1, m and k even with k/gcd and m/gcd odd, r likewise
      3: s = 6, m odd with 5 not dividing m, r = 3
      4: s = 15, m odd, r = 3
      5: s = 63, m odd, r = 3
      6: s = 2^m - 2, m odd, r = 3
    """
    if cls not in (1, 2, 3, 4, 5, 6):
        raise ValueError(f"class must be 1..6, got {cls}")
    if cls in (1, 2):
        if k is None:
            raise ValueError(f"class {cls} requires k")
        if k < 0:
            raise ValueError(f"class {cls} requires k >= 0, got k={k}")
    if cls == 1:
        if m % 2 == 0 or k % 2 == 0:
            raise ValueError(f"class 1 requires odd m and k, got m={m}, k={k}")
        t = gcd(m, k)
        s, r = 2**k + 1, 2**t + 1
    elif cls == 2:
        if m % 2 == 1 or k % 2 == 1 or k < 2:
            raise ValueError(f"class 2 requires even m and even k >= 2, got m={m}, k={k}")
        t = gcd(m, k)
        if (k // t) % 2 == 0 or (m // t) % 2 == 0:
            raise ValueError(
                f"class 2 requires k/gcd(m,k) and m/gcd(m,k) odd, got k={k}, m={m}"
            )
        s, r = 2**k + 1, 2**t + 1
    else:
        if k is not None:
            raise ValueError(f"class {cls} does not depend on k, got k={k}")
        if m % 2 == 0:
            raise ValueError(f"class {cls} requires odd m, got {m}")
        if cls == 3 and m % 5 == 0:
            raise ValueError(f"class 3 requires 5 ∤ m, got m={m}")
        s = {3: 6, 4: 15, 5: 63, 6: 2**m - 2}[cls]
        r = 3
    cond = check_prop3(m, s)
    if not cond.all_ok:
        raise RuntimeError(f"class {cls} parameters unexpectedly fail conditions: {cond}")
    return s, r


def gen_cpp_class(
    cls: int, m: int, k: int = None, ctx: FieldCtx = None, circle: UnitCircle = None
) -> list:
    """Monomial CPP instances u^(-1)*x^d1 for one closed-form class."""
    s, r = cpp_class_params(cls, m, k)
    return _coset_family(f"CPP_CLASS{cls}", CPP, make_niho(m, s, s, 1), r, ctx, circle, k1=k)


def conjecture_trinomials(m: int, ctx: FieldCtx = None) -> tuple:
    """The two trinomials conjectured to permute GF(2^(2m)) for every odd m."""
    if m % 2 == 0 or m < 3:
        raise ValueError(f"m must be odd and >= 3, got {m}")
    ctx = _field(2 * m, ctx)
    f = SparsePoly.make(
        ctx, [(1, 2**m + 4), (1, 2 ** (m + 1) + 3), (1, 2 ** (m + 2) + 1)]
    )
    g = SparsePoly.make(
        ctx, [(1, 2**m), (1, 2 ** (m + 1) - 1), (1, 2 ** (2 * m) - 2**m + 1)]
    )
    return f, g


def gen_conjecture(m: int, ctx: FieldCtx = None) -> list:
    f, g = conjecture_trinomials(m, ctx)
    return [
        FamilyInstance("CONJ_F", m, f, PP),
        FamilyInstance("CONJ_G", m, g, PP),
    ]


# -- parameter sweeps ------------------------------------------------------


def _accepted(params_fn, candidates) -> list:
    """The argument tuples, in order, that ``params_fn`` takes without a ValueError."""
    out = []
    for args in candidates:
        try:
            params_fn(*args)
        except ValueError:
            continue
        out.append(args)
    return out


def _sweep(group, m, s_range=(0, 9), l_range=(0, 9), e_range=(0, 9), k_max=6) -> list:
    """The generator arguments, bar the field and circle, of every valid
    tuple of one family group at this m, in parameter order."""
    ss = range(s_range[0], s_range[1] + 1)
    ks = range(k_max + 1)
    if group == "thm1":
        ls = range(l_range[0], l_range[1] + 1)
        es = range(max(e_range[0], 1), e_range[1] + 1)
        params = (make_niho(m, s, l, e) for s, l, e in product(ss, ls, es))
        return [(p,) for p in params if check_theorem1(p).all_ok]
    if group == "prop1":
        cases = [(case, m, *k) for case in (1, 2) for k in product(ks, repeat=3)]
        cases += [(case, m, k1, None, None) for case in (3, 4, 5, 6) for k1 in ks]
        return _accepted(prop1_params, cases)
    if group in ("prop3", "cor2"):
        return [(m, s) for s in ss if check_prop3(m, s).all_ok]
    if group == "cpp-class":
        return _accepted(cpp_class_params, [(cls, m, k) for cls in (1, 2) for k in ks]
                         + [(cls, m, None) for cls in (3, 4, 5, 6)])
    return [(m,)] if m % 2 == 1 and m >= 3 else []  # conj


def _sample_tuples(tuples, group, m, budget, seed):
    """Deterministically subsample beyond the budget (m = 3 stays exhaustive)."""
    if budget is None or m <= 3 or len(tuples) <= budget:
        return tuples
    rng = random.Random(seed * 1000003 + zlib.crc32(f"{group}:{m}".encode()))
    keep = sorted(rng.sample(range(len(tuples)), budget))
    return [tuples[i] for i in keep]


def verify_claim(inst: FamilyInstance) -> VerificationReport:
    """The check of an instance's claim: ``is_cpp`` for a CPP claim,
    ``is_permutation_brute`` otherwise."""
    return is_cpp(inst.poly) if inst.claim == CPP else is_permutation_brute(inst.poly)


def scan_families(
    m_range,
    budget: int = None,
    *,
    families=None,
    s_range=(0, 9),
    l_range=(0, 9),
    e_range=(0, 9),
    k_max: int = 6,
    seed: int = 0,
) -> list:
    """Generate and brute-force-verify every family instance in range.

    Returns (FamilyInstance, VerificationReport) pairs in canonical order:
    m as given, then family group, then parameter order.  Polynomials that
    coincide after canonicalization are verified once; every parameter
    provenance still gets its own row.  A False verdict anywhere falsifies
    a construction's claim and is surfaced by the callers.
    """
    groups = FAMILY_GROUPS if families is None else tuple(families)
    for g in groups:
        if g not in FAMILY_GROUPS:
            raise ValueError(f"unknown family group {g!r}: pick from {FAMILY_GROUPS}")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1 (or None for every tuple), got {budget}")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    # looked up per call, so that a replaced module attribute is the one run
    generators = dict(zip(FAMILY_GROUPS, (gen_theorem1, gen_prop1, gen_prop3,
                                          gen_cpp_cor2, gen_cpp_class, gen_conjecture)))
    records = []
    for m, ctx in [(m, field_new(2 * m)) for m in m_range]:  # refuse any m before a sweep
        circle = build_unit_circle(ctx)
        cache = {}
        for group in FAMILY_GROUPS:
            if group not in groups:
                continue
            shared = (ctx,) if group == "conj" else (ctx, circle)
            tuples = _sweep(group, m, s_range, l_range, e_range, k_max)
            for args in _sample_tuples(tuples, group, m, budget, seed):
                for inst in generators[group](*args, *shared):
                    key = (inst.poly.terms, inst.claim)
                    if key not in cache:
                        cache[key] = verify_claim(inst)
                    records.append((inst, cache[key]))
    return records


# -- serialization ----------------------------------------------------------

CSV_COLUMNS = [
    "family_id", "m", "s", "l", "e", "k1", "k2", "k3",
    "u_hex", "d1", "d2", "claim", "verdict", "elapsed_ms",
]


def instance_to_obj(inst: FamilyInstance, rep: VerificationReport = None,
                    timing: bool = False) -> dict:
    """JSON-ready provenance for one instance, with its report when given."""
    p = inst.niho
    obj = {
        "family_id": inst.family_id,
        "m": inst.m,
        "params": (
            {"s": p.s, "l": p.l, "e": p.e, "d1": p.d1, "d2": p.d2} if p else None
        ),
        "k1": inst.k1,
        "k2": inst.k2,
        "k3": inst.k3,
        "u": f"0x{inst.u:x}" if inst.u is not None else None,
        "poly": inst.poly.to_spec(),
        "claims": [inst.claim],
    }
    if rep is not None:
        obj["report"] = rep.to_json(timing=timing)
    return obj


def instance_row(inst: FamilyInstance, rep: VerificationReport = None,
                 timing: bool = False) -> list:
    """:func:`instance_to_obj` as one CSV row; a missing value is a blank
    cell, so verdict and elapsed stay blank without a report/timing."""
    obj = instance_to_obj(inst, rep, timing)
    report = obj.get("report", {})
    cells = {**obj, **(obj["params"] or {}), "u_hex": obj["u"], "claim": inst.claim}
    if "verdict" in report:
        cells["verdict"] = str(report["verdict"]).lower()
    if "elapsed_ms" in report:
        cells["elapsed_ms"] = f"{report['elapsed_ms']:.3f}"
    return ["" if cells.get(c) is None else cells[c] for c in CSV_COLUMNS]


def scan_to_csv(records, stream, timing: bool = False) -> None:
    """Write (instance, report) records as CSV; a record without a report
    leaves verdict blank, and elapsed_ms stays blank unless timing is on."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for inst, rep in records:
        writer.writerow(instance_row(inst, rep, timing=timing))


def scan_to_jsonl(records, stream, timing: bool = False) -> None:
    """One JSON object per record, embedding the full verification report."""
    for inst, rep in records:
        stream.write(json.dumps(instance_to_obj(inst, rep, timing)) + "\n")

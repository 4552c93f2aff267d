"""Command-line interface: verify polynomials, generate family instances,
scan parameter ranges, and reproduce the trinomial conjecture checks.

Exit codes: 0 all claims verified, 1 a claim failed (witness printed),
2 the engines disagreed (an implementation bug, never ambiguity),
64 usage or parameter error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .exponents import make_niho
from .families import (
    gen_conjecture,
    gen_cpp_class,
    gen_cpp_cor2,
    gen_prop1,
    gen_prop3,
    gen_theorem1,
    instance_to_obj,
    scan_families,
    scan_to_csv,
    scan_to_jsonl,
    verify_claim,
    FAMILY_GROUPS,
)
from .gf2n import SUPPORTED_N, SparsePoly, field_new
from .spectra import (
    delta_path,
    is_permutation_brute,
    is_pp_charsum,
    is_pp_delta_criterion,
)

ENGINE_CHOICES = ("brute", "charsum", "delta")

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_DISAGREEMENT = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 64 on usage errors (sysexits convention)."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nihoperm",
        description="Construct and verify permutation binomials over GF(2^n).",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p_verify = sub.add_parser("verify", help="verify one polynomial with chosen engines")
    p_verify.add_argument("--n", type=int, required=True, help="field degree (even, 4..20)")
    p_verify.add_argument(
        "--poly", required=True,
        help="terms as hexcoeff:exp,... e.g. 1:10,2c:52 (coeff hex, exponent decimal)",
    )
    p_verify.add_argument(
        "--engines", default=None,
        help=f"comma list from {','.join(ENGINE_CHOICES)} (default: brute"
        " plus delta when every target has an exponent coprime to 2^n - 1)",
    )
    p_verify.add_argument("--cpp", action="store_true",
                          help="verify complete permutation (f and f+x)")
    p_verify.add_argument("--delta-direct", action="store_true",
                          help="force the delta engine onto the full-field sum")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--timing", action="store_true",
                          help="include elapsed_ms in reports")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("generate", help="emit family instances")
    gen_sub = p_gen.add_subparsers(dest="family", required=True, parser_class=_Parser)

    def add_common(sp):
        sp.add_argument("--check", action="store_true",
                        help="verify each instance (brute force / is_cpp)")
        sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
        sp.add_argument("--timing", action="store_true")

    g = gen_sub.add_parser("thm1", help="x^d1 + u*x^d2 from (m, s, l, e)")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--s", type=int, required=True)
    g.add_argument("--l", type=int, required=True)
    g.add_argument("--e", type=int, required=True)
    add_common(g)

    g = gen_sub.add_parser("prop1", help="the six explicit r=3 cases")
    g.add_argument("case", type=int, choices=range(1, 7))
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--k1", type=int, required=True)
    g.add_argument("--k2", type=int, default=None)
    g.add_argument("--k3", type=int, default=None)
    add_common(g)

    g = gen_sub.add_parser("prop3", help="x^d1 + u*x from (m, s)")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--s", type=int, required=True)
    add_common(g)

    g = gen_sub.add_parser("cor2", help="monomial CPPs u^-1*x^d1 from (m, s)")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--s", type=int, required=True)
    add_common(g)

    g = gen_sub.add_parser("cpp-class", help="the six closed-form CPP classes")
    g.add_argument("case", type=int, choices=range(1, 7))
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--k", type=int, default=None)
    add_common(g)

    g = gen_sub.add_parser("conj", help="the two conjectured trinomials")
    g.add_argument("--m", type=int, required=True)
    add_common(g)
    p_gen.set_defaults(func=cmd_generate)

    p_scan = sub.add_parser("scan", help="sweep parameter ranges and verify everything")
    p_scan.add_argument("--m", type=int, action="append", dest="ms",
                        help="repeatable; one field per m (n = 2m)")
    p_scan.add_argument("--families", default="all",
                        help=f"'all' or comma list from {','.join(FAMILY_GROUPS)}")
    p_scan.add_argument("--budget", type=int, default=None,
                        help="max parameter tuples per family beyond m=3 (sampled)")
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.add_argument("--k-max", type=int, default=6)
    p_scan.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_scan.add_argument("--timing", action="store_true")
    p_scan.set_defaults(func=cmd_scan)

    p_conj = sub.add_parser("conjecture", help="brute-check the trinomials for odd m")
    p_conj.add_argument("--m", required=True, help="comma list of odd m, e.g. 3,5,7,9")
    p_conj.add_argument("--format", choices=("text", "json"), default="text")
    p_conj.add_argument("--timing", action="store_true")
    p_conj.set_defaults(func=cmd_conjecture)

    return parser


def _run_engine(name: str, poly: SparsePoly, args):
    if name == "brute":
        return is_permutation_brute(poly)
    if name == "charsum":
        return is_pp_charsum(poly)
    return is_pp_delta_criterion(poly, force_direct=args.delta_direct)


def _report_tail(rep, key: str, timing: bool) -> str:
    """The text-format end of a report line: ' <key>=true|false', then the
    witness on failure and elapsed_ms under --timing."""
    tail = f" {key}={str(rep.verdict).lower()}"
    if rep.witness is not None:
        tail += f" witness={rep.witness_hex()}"
    if timing:
        tail += f" elapsed_ms={rep.elapsed * 1000:.3f}"
    return tail


def cmd_verify(args) -> int:
    ctx = field_new(args.n)
    poly = SparsePoly.from_spec(ctx, args.poly)
    targets = [("f", poly)]
    if args.cpp:
        targets.append(("f+x", poly.plus_x()))
    if args.engines is not None:
        engines = [e.strip() for e in args.engines.split(",")]
        for e in engines:
            if e not in ENGINE_CHOICES:
                raise ValueError(f"unknown engine {e!r}: pick from {ENGINE_CHOICES}")
    else:
        engines = ["brute"]
        # the delta engine needs a pivot exponent in every target
        if all(delta_path(ctx, t.exponents())[0] is not None for _, t in targets):
            engines.append("delta")

    results = []
    per_engine = {}
    for engine in engines:
        verdict = True
        for label, target in targets:
            rep = _run_engine(engine, target, args)
            results.append((label, rep))
            verdict = verdict and rep.verdict
        per_engine[engine] = verdict
    agree = len(set(per_engine.values())) == 1
    verdict = all(per_engine.values())
    claim = "CPP" if args.cpp else "PP"

    if args.format == "json":
        obj = {
            "field": ctx.field_spec(),
            "poly": poly.to_spec(),
            "claim": claim,
            "results": [
                {"target": label, "report": rep.to_json(timing=args.timing)}
                for label, rep in results
            ],
            "verdict": verdict,
            "engines_agree": agree,
        }
        print(json.dumps(obj, indent=2))
    else:
        print(f"n={ctx.n} poly={poly.to_spec()} claim={claim}")
        for label, rep in results:
            print(f"engine={rep.engine} target={label}" + _report_tail(rep, "verdict", args.timing))
        status = "verified" if verdict else "FAILED"
        if not agree:
            status = "ENGINE DISAGREEMENT"
        print(f"result: {claim} {status}")

    if not agree:
        return EXIT_DISAGREEMENT
    return EXIT_OK if verdict else EXIT_CLAIM_FAILED


def _generate_instances(args):
    fam = args.family
    if fam == "thm1":
        return gen_theorem1(make_niho(args.m, args.s, args.l, args.e))
    if fam == "prop1":
        return gen_prop1(args.case, args.m, args.k1, args.k2, args.k3)
    if fam == "prop3":
        return gen_prop3(args.m, args.s)
    if fam == "cor2":
        return gen_cpp_cor2(args.m, args.s)
    if fam == "cpp-class":
        return gen_cpp_class(args.case, args.m, args.k)
    return gen_conjecture(args.m)


def cmd_generate(args) -> int:
    records = [(inst, verify_claim(inst) if args.check else None)
               for inst in _generate_instances(args)]
    failures = sum(1 for _, rep in records if rep is not None and not rep.verdict)

    if args.format == "csv":
        scan_to_csv(records, sys.stdout, timing=args.timing)
    elif args.format == "json":
        print(json.dumps([instance_to_obj(inst, rep, args.timing) for inst, rep in records],
                         indent=2))
    else:
        for inst, rep in records:
            line = (
                f"family={inst.family_id} m={inst.m} "
                f"poly={inst.poly.to_spec()} claims={'+'.join(sorted(inst.claims))}"
            )
            if inst.u is not None:
                line += f" u=0x{inst.u:x}"
            if rep is not None:
                line += _report_tail(rep, "verified", args.timing)
            print(line)
        if args.check:
            print(f"instances={len(records)} failures={failures}")

    return EXIT_OK if failures == 0 else EXIT_CLAIM_FAILED


def cmd_scan(args) -> int:
    if not args.ms:
        raise ValueError("at least one --m is required")
    if len(set(args.ms)) != len(args.ms):
        raise ValueError(f"duplicate --m values: {args.ms}")
    for m in args.ms:
        if 2 * m not in SUPPORTED_N:
            raise ValueError(f"m={m} gives n={2 * m}, outside supported even 4..20")
    if args.families == "all":
        families = None
    else:
        families = tuple(f.strip() for f in args.families.split(","))
    records = scan_families(
        args.ms, budget=args.budget, families=families, k_max=args.k_max, seed=args.seed
    )
    if args.format == "jsonl":
        scan_to_jsonl(records, sys.stdout, timing=args.timing)
    else:
        scan_to_csv(records, sys.stdout, timing=args.timing)
    failures = sum(1 for _, rep in records if not rep.verdict)
    print(f"instances={len(records)} failures={failures}", file=sys.stderr)
    return EXIT_OK if failures == 0 else EXIT_CLAIM_FAILED


def cmd_conjecture(args) -> int:
    try:
        ms = [int(x) for x in args.m.split(",")]
    except ValueError:
        raise ValueError(f"--m expects a comma list of integers, got {args.m!r}") from None
    for m in ms:
        if m % 2 == 0 or m < 3:
            raise ValueError(f"m must be odd and >= 3, got {m}")
        if 2 * m not in SUPPORTED_N:
            raise ValueError(
                f"m={m} gives n={2 * m}, outside the supported field degrees 4..20"
            )
    records = [(inst, verify_claim(inst)) for m in ms for inst in gen_conjecture(m)]
    all_pp = all(rep.verdict for _, rep in records)

    if args.format == "json":
        objs = [instance_to_obj(inst, rep, args.timing) for inst, rep in records]
        print(json.dumps({"results": objs, "all_pp": all_pp}, indent=2))
    else:
        for inst, rep in records:
            name = "f" if inst.family_id == "CONJ_F" else "g"
            exps = ",".join(str(e) for e in inst.poly.exponents())
            print(f"m={inst.m} n={2 * inst.m} {name} exponents={exps}"
                  + _report_tail(rep, "verdict", args.timing))
        print(f"all_pp={str(all_pp).lower()}")
    return EXIT_OK if all_pp else EXIT_CLAIM_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

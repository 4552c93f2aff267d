"""The benchmark's four workloads: seeded inputs, the calls that run them, and
the checks that decide whether each call was right.

Every operation goes through a call a user makes: `nihoperm.cli.main(argv)`
in-process with stdout and stderr captured, or the library function
`unique_solution_check`, which has no CLI command.  An operation fails when
it raises, exits with code 2 or 64 (or any code other than the one its
label implies), gives a verdict that differs from its corpus label, returns
a witness that does not check out on its own terms, or, for `scan`, prints
bytes whose digest differs from the one recorded in `scan_digests.json`.

For the corpus workloads the seed chooses which parameter tuples and which
coefficients u are used, while the number of permutations (PPs) and of
non-permutations at each field degree n is fixed, so the work per pass does
not depend on the seed.  Labels come from a family's claim (theorem 1, the
CPP classes, the conjectured trinomials) or, for controls, from `brute` at
build time, with the colliding pair checked by scalar evaluation.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from time import perf_counter

SCAN_DIGESTS = Path(__file__).with_name("scan_digests.json")
SCAN_SEEDS = 16  # scan --seed is the run's seed mod this; digests exist for each


class CorpusError(RuntimeError):
    """The corpus could not be built as specified."""


@dataclass(frozen=True)
class Op:
    """One call: a CLI command line, or `unique_solution_check(params, u)`.

    `labels` holds the expected verdict of each polynomial the call decides
    (True: the claimed PP or CPP property holds).  A scan has no labels: every
    row carries its family's claim, which must hold.
    """

    kind: str  # "verify", "conjecture", "scan" or "unique"
    n: int
    argv: tuple = ()
    labels: tuple = ()
    params: object = None
    u: int = None


@dataclass
class Outcome:
    elapsed: float
    rc: int = None
    out: str = ""
    err: str = ""
    report: object = None
    error: str = None


def execute(lib, op: Op) -> Outcome:
    """Run one operation, timing only the call itself."""
    if op.kind == "unique":
        t0 = perf_counter()
        try:
            report = lib.spectra.unique_solution_check(op.params, op.u)
        except Exception as exc:  # any exception is a failed operation
            return Outcome(perf_counter() - t0, error=repr(exc))
        return Outcome(perf_counter() - t0, report=report)
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = lib.cli.main(list(op.argv))
    except Exception as exc:  # any exception is a failed operation
        return Outcome(perf_counter() - t0, out=out.getvalue(), err=err.getvalue(),
                       error=repr(exc))
    except SystemExit as exc:  # argparse exits on usage errors
        return Outcome(perf_counter() - t0, rc=exc.code, out=out.getvalue(),
                       err=err.getvalue())
    return Outcome(perf_counter() - t0, rc=rc, out=out.getvalue(), err=err.getvalue())


# -- witnesses -----------------------------------------------------------------


def _pivot_split(poly):
    """(d1, [(c_i / c1, d_i)]) with d1 the first exponent coprime to 2^n - 1."""
    ctx = poly.ctx
    pivot = next(i for i, (_, e) in enumerate(poly.terms) if gcd(e, ctx.mult_order) == 1)
    c1, d1 = poly.terms[pivot]
    ic = ctx.inv(c1)
    return d1, [(ctx.mul(c, ic), e) for i, (c, e) in enumerate(poly.terms) if i != pivot]


def witness_problem(lib, poly, engine: str, verdict: bool, witness):
    """Why a report's witness does not check out, or None when it does.

    A brute pair must collide under scalar evaluation; a charsum gamma must
    give char_sum(g, gamma) != 0; a delta must fail the delta criterion with
    w_i = c_i * delta^(d1 - d_i): on the circle, count_unit_circle_solutions
    must differ from 1, and over the whole field the character sum at
    gamma = 1 of x^d1 + sum w_i x^d_i must be nonzero.
    """
    if verdict:
        return None if witness is None else f"{engine}: PP verdict with witness {witness}"
    if witness is None:
        return f"{engine}: non-PP verdict without a witness"
    ctx = poly.ctx
    if engine == "brute":
        x1, x2 = (int(w, 16) for w in witness.split(","))
        if x1 == x2 or poly.eval(x1) != poly.eval(x2):
            return f"brute: pair {witness} does not collide"
        return None
    value = int(witness, 16)
    if not 0 < value < ctx.order:
        return f"{engine}: witness {witness} outside the nonzero field elements"
    if engine == "charsum":
        if lib.spectra.char_sum(poly, value) == 0:
            return f"charsum: char_sum at gamma={witness} is 0"
        return None
    d1, rest = _pivot_split(poly)
    ws = [ctx.mul(c, ctx.pow(value, d1 - e)) for c, e in rest]
    ds = [e for _, e in rest]
    if engine == "niho":
        if lib.spectra.count_unit_circle_solutions(ctx, [d1] + ds, ws) == 1:
            return f"niho: delta={witness} has exactly one circle solution"
        return None
    if engine == "delta_criterion":
        h = lib.gf2n.SparsePoly.make(ctx, [(1, d1)] + list(zip(ws, ds)))
        if lib.spectra.char_sum(h, 1) == 0:
            return f"delta_criterion: delta={witness} gives a zero character sum"
        return None
    return f"unknown engine {engine!r}"


# -- checks --------------------------------------------------------------------


def _argv_value(argv, flag):
    return argv[argv.index(flag) + 1]


def _target_polys(lib, op: Op):
    ctx = lib.gf2n.field_new(op.n)
    poly = lib.gf2n.SparsePoly.from_spec(ctx, _argv_value(op.argv, "--poly"))
    return {"f": poly, "f+x": poly.plus_x()}


def check_verify(lib, op: Op, res: Outcome) -> list:
    label = op.labels[0]
    if res.rc != (0 if label else 1):
        return [f"exit code {res.rc}, expected {0 if label else 1}: {res.err.strip()}"]
    obj = json.loads(res.out)
    problems = []
    if not obj["engines_agree"]:
        problems.append("engines disagree")
    if obj["verdict"] != label:
        problems.append(f"verdict {obj['verdict']}, label {label}")
    targets = _target_polys(lib, op)
    for item in obj["results"]:
        rep = item["report"]
        why = witness_problem(lib, targets[item["target"]], rep["engine"],
                              rep["verdict"], rep["witness"])
        if why:
            problems.append(why)
    return problems


def check_conjecture(lib, op: Op, res: Outcome) -> list:
    if res.rc != (0 if all(op.labels) else 1):
        return [f"exit code {res.rc}: {res.err.strip()}"]
    obj = json.loads(res.out)
    m = op.n // 2
    polys = lib.families.conjecture_trinomials(m, lib.gf2n.field_new(op.n))
    problems = []
    if len(obj["results"]) != len(op.labels):
        return [f"{len(obj['results'])} results for {len(op.labels)} trinomials"]
    for item, poly, label in zip(obj["results"], polys, op.labels):
        rep = item["report"]
        if item["poly"] != poly.to_spec():
            problems.append(f"unexpected trinomial {item['poly']}")
        if rep["verdict"] != label:
            problems.append(f"{item['family_id']}: verdict {rep['verdict']}, label {label}")
        why = witness_problem(lib, poly, rep["engine"], rep["verdict"], rep["witness"])
        if why:
            problems.append(why)
    return problems


def check_unique(lib, op: Op, res: Outcome) -> list:
    rep = res.report
    problems = []
    if rep.verdict != op.labels[0]:
        problems.append(f"verdict {rep.verdict}, label {op.labels[0]}")
    if not rep.verdict:
        p = op.params
        ctx = lib.gf2n.field_new(op.n)
        poly = lib.gf2n.SparsePoly.make(ctx, [(1, p.d1), (op.u, p.d2)])
        why = witness_problem(lib, poly, "niho", False, rep.witness_hex())
        if why:
            problems.append(why)
    return problems


def scan_rows(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


def scan_digest(rows) -> str:
    """sha256 of the scan CSV as printed without --timing (elapsed_ms blank)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    elapsed = rows[0].index("elapsed_ms")
    for row in rows:
        writer.writerow(row if row is rows[0] else row[:elapsed] + [""] + row[elapsed + 1:])
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def scan_key_argv(argv) -> str:
    """The digest key of a scan command: its arguments without --timing."""
    return " ".join(a for a in argv if a != "--timing")


def check_scan(lib, op: Op, res: Outcome, digests: dict) -> list:
    if res.rc != 0:
        return [f"exit code {res.rc}: {res.err.strip()}"]
    rows = scan_rows(res.out)
    problems = []
    want = digests.get(scan_key_argv(op.argv))
    if want is None:
        problems.append(f"no recorded digest for {scan_key_argv(op.argv)!r}")
    elif scan_digest(rows) != want:
        problems.append("scan output digest differs from the recorded one")
    verdict = rows[0].index("verdict")
    if any(row[verdict] != "true" for row in rows[1:]):
        problems.append("a family claim failed")
    if res.err != f"instances={len(rows) - 1} failures=0\n":
        problems.append(f"unexpected stderr {res.err!r}")
    return problems


def scan_distinct(lib, rows) -> tuple:
    """First-occurrence row numbers of each distinct (terms, claim) key, and
    the number of distinct PP and CPP keys.

    The polynomial of a row is rebuilt from its provenance columns the way
    each family builds it, so the count does not rely on scan's own cache.
    """
    header = rows[0]
    col = {name: i for i, name in enumerate(header)}
    fields = {}
    seen = {}
    for i, row in enumerate(rows[1:], start=1):
        m = int(row[col["m"]])
        ctx = fields.get(m)
        if ctx is None:
            ctx = fields[m] = lib.gf2n.field_new(2 * m)
        fam, claim = row[col["family_id"]], row[col["claim"]]
        if fam.startswith("CONJ"):
            f, g = lib.families.conjecture_trinomials(m, ctx)
            terms = (f if fam == "CONJ_F" else g).terms
        else:
            u, d1 = int(row[col["u_hex"]], 16), int(row[col["d1"]])
            if claim == "CPP":
                spec = [(ctx.inv(u), d1)]
            elif fam == "PROP3":
                spec = [(1, d1), (u, 1)]
            else:
                spec = [(1, d1), (u, int(row[col["d2"]]))]
            terms = lib.gf2n.SparsePoly.make(ctx, spec).terms
        seen.setdefault((m, terms, claim), i)
    firsts = sorted(seen.values())
    n_cpp = sum(1 for (_, _, claim) in seen if claim == "CPP")
    return firsts, len(seen) - n_cpp, n_cpp


# -- corpus helpers ------------------------------------------------------------


def theorem1_tuples(lib, m: int) -> list:
    """Theorem-1 tuples with s, l, e in 0..9, without the degenerate ones.

    With l = 0 mod 2^m + 1 the exponents coincide and x^d1 + u*x^d2 collapses
    to the monomial (1 + u)*x^d1, so the delta loop would run only once.  For
    m = 4 and m = 8 no tuple is left, because 17 and 257 are prime.
    """
    out = []
    for s in range(10):
        for l in range(10):
            if l % (2**m + 1) == 0:
                continue
            for e in range(1, 10):
                p = lib.exponents.make_niho(m, s, l, e)
                if lib.families.check_theorem1(p).all_ok:
                    out.append(p)
    return out


def exponent_weight(p) -> int:
    """bit length plus popcount of d1 and d2: the squarings and multiplications
    (plus two each) that square-and-multiply spends on x^d1 and x^d2."""
    return sum(d.bit_length() + bin(d).count("1") for d in (p.d1, p.d2))


def typical(tuples, share: float = 1 / 3) -> list:
    """The given share of tuples whose exponent weight is closest to the median.

    Whole-field evaluation costs grow with the exponent weight, which ranges
    over a factor of two; drawing from this band keeps a pass's work nearly
    the same for every seed.
    """
    weights = sorted(exponent_weight(p) for p in tuples)
    median = weights[len(weights) // 2]
    ranked = sorted(tuples, key=lambda p: abs(exponent_weight(p) - median))
    return ranked[:max(1, round(len(tuples) * share))]


def _circle_field(lib, m):
    ctx = lib.gf2n.field_new(2 * m)
    return ctx, lib.unit_circle.build_unit_circle(ctx)


def _certified(lib, rng, ctx, circle, tuples):
    """A theorem-1 PP: random tuple, random non-r-th-power u on the circle."""
    p = rng.choice(tuples)
    u = rng.choice(lib.unit_circle.complement_coset(circle, gcd(p.l, circle.order)))
    return p, u, lib.gf2n.SparsePoly.make(ctx, [(1, p.d1), (u, p.d2)])


def _brute_label(lib, poly) -> bool:
    """Label a control by brute force; a collision is checked by scalar eval."""
    rep = lib.spectra.is_permutation_brute(poly)
    if not rep.verdict:
        why = witness_problem(lib, poly, "brute", False, rep.witness_hex())
        if why:
            raise CorpusError(f"labelling {poly.to_spec()}: {why}")
    return rep.verdict


def _draw(lib, make, want: bool, tries: int = 2000):
    """Draw polynomials from `make` until brute force labels one `want`."""
    for _ in range(tries):
        poly = make()
        if poly is not None and _brute_label(lib, poly) == want:
            return poly
    raise CorpusError(f"no {'PP' if want else 'non-PP'} found in {tries} draws")


def _rth_power_control(lib, rng, ctx, circle, tuples):
    """x^d1 + u*x^d2 for a theorem-1 tuple but u an r-th power on the circle."""
    def make():
        p = rng.choice(tuples)
        u = rng.choice(lib.unit_circle.power_subgroup(circle, gcd(p.l, circle.order)))
        return lib.gf2n.SparsePoly.make(ctx, [(1, p.d1), (u, p.d2)])
    return _draw(lib, make, want=False)


def _verify(n, poly, label, *flags) -> Op:
    argv = ("verify", "--n", str(n), "--poly", poly.to_spec(), *flags, "--format", "json")
    return Op("verify", n, argv, (label,))


def cpp_classes(lib, m: int) -> list:
    """(class, k) pairs of the closed-form CPP classes valid at this m."""
    out = []
    for cls in range(1, 7):
        for k in (range(7) if cls in (1, 2) else (None,)):
            try:
                lib.families.cpp_class_params(cls, m, k)
            except ValueError:
                continue
            out.append((cls, k))
    return out


# -- workloads -----------------------------------------------------------------


class Workload:
    name = ""
    why = ""
    fields = ()  # field degrees whose tables set-up touches

    def build(self, lib, seed: int) -> list:
        raise NotImplementedError

    def verdicts(self, op: Op, res: Outcome) -> int:
        """Polynomial verdicts the operation delivered."""
        return len(op.labels)

    def samples_ms(self, lib, op: Op, res: Outcome) -> list:
        """Per-polynomial latency samples, in ms."""
        return [res.elapsed * 1000.0 / len(op.labels)] * len(op.labels)

    def check(self, lib, op: Op, res: Outcome) -> list:
        """Problems with one outcome; an empty list means it was right."""
        if res.error is not None:
            return [f"raised {res.error}"]
        return {"verify": check_verify, "conjecture": check_conjecture,
                "unique": check_unique}[op.kind](lib, op, res)


class Scan(Workload):
    name = "scan"
    why = ("thousands of small polynomials (n <= 10): family generation, dedupe, "
           "serialization and per-call gf2n cost dominate, so a fixed cost per "
           "field or call shows here")
    fields = (6, 10)

    def __init__(self, ms=(3, 5)):
        self.ms = ms
        self.digests = json.loads(SCAN_DIGESTS.read_text())
        self._distinct = {}  # digest of a scan output -> scan_distinct of it

    def build(self, lib, seed):
        ops = []
        for m in self.ms:
            argv = ["scan", "--m", str(m)]
            if m > 3:
                argv += ["--budget", "200", "--seed", str(seed % SCAN_SEEDS)]
            ops.append(Op("scan", 2 * m, tuple(argv + ["--timing"])))
        return ops

    def verdicts(self, op, res):
        return max(res.out.count("\n") - 1, 0)

    def samples_ms(self, lib, op, res):
        # scan delivers its rows all at once, so the latency of one
        # polynomial is the elapsed_ms that --timing prints for it, taken
        # once per distinct verification (repeated rows come from the cache).
        rows = scan_rows(res.out)
        elapsed = rows[0].index("elapsed_ms")
        firsts, _, _ = self.distinct(lib, rows)
        return [float(rows[i][elapsed]) for i in firsts]

    def distinct(self, lib, rows):
        key = scan_digest(rows)
        if key not in self._distinct:
            self._distinct[key] = scan_distinct(lib, rows)
        return self._distinct[key]

    def check(self, lib, op, res):
        if res.error is not None:
            return [f"raised {res.error}"]
        return check_scan(lib, op, res, self.digests)


class Circle(Workload):
    name = "circle"
    why = ("the unit-circle engines (niho delta loop at m = 5..7, "
           "unique_solution_check at m = 9, 10) dominate: the target of a "
           "circle engine costing 2^m")
    fields = (10, 12, 14, 18, 20)
    # m -> (certified PPs, r-th-power controls) for default verify
    VERIFY = {5: (6, 4), 6: (4, 4), 7: (2, 4)}
    # m -> {r: certified tuples} for unique_solution_check, whose walk over
    # the coset u*U^r costs (2^m + 1) / r steps: fixed per r, so the work
    # per pass does not depend on the seed
    UNIQUE = {9: {3: 2, 9: 1}, 10: {5: 3}}

    def build(self, lib, seed):
        rng = random.Random(f"circle:{seed}")
        ops = []
        for m, (n_pp, n_ctrl) in self.VERIFY.items():
            ctx, circle = _circle_field(lib, m)
            tuples = theorem1_tuples(lib, m)
            for _ in range(n_pp):
                ops.append(_verify(2 * m, _certified(lib, rng, ctx, circle, tuples)[2], True))
            for _ in range(n_ctrl):
                ops.append(_verify(2 * m, _rth_power_control(lib, rng, ctx, circle, tuples),
                                   False))
        for m, per_r in self.UNIQUE.items():
            ctx, circle = _circle_field(lib, m)
            tuples = theorem1_tuples(lib, m)
            for r, count in per_r.items():
                with_r = [p for p in tuples if gcd(p.l, circle.order) == r]
                for _ in range(count):
                    p, u, _ = _certified(lib, rng, ctx, circle, with_r)
                    ops.append(Op("unique", 2 * m, labels=(True,), params=p, u=u))
        rng.shuffle(ops)
        return ops


class Bigfield(Workload):
    name = "bigfield"
    why = ("few whole-field evaluations of 2^18 to 2^20 points (pow/mul/sqr_vec, "
           "bincount, collision search): the opposite use of the field layer "
           "from scan")
    fields = (18, 20)
    # m -> (theorem-1 PPs, CPP-class monomials, r-th-power controls)
    COUNTS = {9: (10, 2, 0), 10: (3, 2, 3)}

    def build(self, lib, seed):
        rng = random.Random(f"bigfield:{seed}")
        ops = []
        for m, (n_pp, n_cpp, n_ctrl) in self.COUNTS.items():
            n = 2 * m
            ctx, circle = _circle_field(lib, m)
            tuples = typical(theorem1_tuples(lib, m))
            for _ in range(n_pp):
                poly = _certified(lib, rng, ctx, circle, tuples)[2]
                ops.append(_verify(n, poly, True, "--engines", "brute"))
            classes = cpp_classes(lib, m)
            for _ in range(n_cpp):
                cls, k = rng.choice(classes)
                inst = rng.choice(lib.families.gen_cpp_class(cls, m, k, ctx, circle))
                ops.append(_verify(n, inst.poly, True, "--cpp", "--engines", "brute"))
            for _ in range(n_ctrl):
                poly = _rth_power_control(lib, rng, ctx, circle, tuples)
                ops.append(_verify(n, poly, False, "--engines", "brute"))
        ops.append(Op("conjecture", 18, ("conjecture", "--m", "9", "--format", "json"),
                      (True, True)))
        rng.shuffle(ops)
        return ops


class Oracle(Workload):
    name = "oracle"
    why = ("the quadratic engines charsum and direct delta criterion at n = 8, "
           "10, on Niho-congruent and general sparse polynomials: the target of "
           "a Walsh-Hadamard charsum")
    fields = (8, 10)
    # per n: PPs and non-PPs, each split into Niho-congruent and general
    PP = {"niho": 3, "general": 3}
    NON_PP = {"niho": 3, "general": 2}

    def build(self, lib, seed):
        rng = random.Random(f"oracle:{seed}")
        ops = []
        for n in (8, 10):
            m = n // 2
            ctx, circle = _circle_field(lib, m)
            tuples = theorem1_tuples(lib, m)
            step = 2**m - 1
            N = ctx.mult_order

            def niho_binomial():
                d1 = rng.randrange(1, N)
                if gcd(d1, N) != 1:
                    return None
                d2 = (d1 - 1 + step * rng.randrange(1, 2**m + 1)) % N + 1
                return lib.gf2n.SparsePoly.make(ctx, [(1, d1), (rng.randrange(1, ctx.order), d2)])

            def linearized():
                # x^(2^i) + a x^(2^j) + b x^(2^k): permutes iff its kernel is
                # trivial; exponents not all congruent mod 2^m - 1
                exps = rng.sample([2**i for i in range(n)], 3)
                if len({e % step for e in exps}) == 1:
                    return None
                return lib.gf2n.SparsePoly.make(
                    ctx, [(1, exps[0])] + [(rng.randrange(1, ctx.order), e) for e in exps[1:]])

            def sparse():
                exps = rng.sample(range(1, N), 3)
                poly = lib.gf2n.SparsePoly.make(
                    ctx, [(rng.randrange(1, ctx.order), e) for e in exps])
                congruent = len({e % step for e in poly.exponents()}) == 1
                return poly if poly.has_unit_pivot() and not congruent else None

            pps = []
            for _ in range(self.PP["niho"]):
                if tuples:
                    pps.append(_certified(lib, rng, ctx, circle, tuples)[2])
                else:
                    pps.append(_draw(lib, niho_binomial, want=True))
            pps += [_draw(lib, linearized, want=True) for _ in range(self.PP["general"])]
            non = [_draw(lib, niho_binomial, want=False) for _ in range(self.NON_PP["niho"])]
            non += [_draw(lib, sparse, want=False) for _ in range(self.NON_PP["general"])]
            flags = ("--engines", "brute,charsum,delta", "--delta-direct")
            ops += [_verify(n, p, True, *flags) for p in pps]
            ops += [_verify(n, p, False, *flags) for p in non]
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (Scan, Circle, Bigfield, Oracle)}

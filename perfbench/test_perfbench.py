"""Tests of the benchmark itself: its trace, its corpus and its checks."""

from __future__ import annotations

import hashlib
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
from tracing import Tracer, layer_metric_units
from workloads import (
    Bigfield,
    Circle,
    Op,
    Oracle,
    Scan,
    execute,
    scan_digest,
    scan_distinct,
    scan_rows,
    witness_problem,
)

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def lib():
    # The modules already imported, not a fresh import: other test modules
    # hold references to them.
    return SimpleNamespace(**{m: importlib.import_module(f"nihoperm.{m}") for m in run.MODULES})


def corpus_digest(ops) -> str:
    text = json.dumps([[op.kind, op.n, list(op.argv), list(op.labels),
                        repr(op.params), op.u] for op in ops])
    return hashlib.sha256(text.encode()).hexdigest()


def label_counts(ops) -> dict:
    """(n, label) -> number of polynomials in the corpus."""
    out = {}
    for op in ops:
        for label in op.labels:
            out[(op.n, label)] = out.get((op.n, label), 0) + 1
    return out


def traced_pass(lib, ops):
    tracer = Tracer()
    with tracer.installed(lib):
        outcomes = [(op, execute(lib, op)) for op in ops]
    return tracer, outcomes


def test_trace_wraps_names_imported_into_other_modules(lib):
    originals = {
        (mod, name): getattr(getattr(lib, mod), name)
        for mod, name in [("spectra", "build_unit_circle"), ("families", "is_permutation_brute"),
                          ("families", "is_cpp"), ("cli", "scan_families"),
                          ("cli", "is_permutation_brute"), ("cli", "is_pp_delta_criterion")]
    }
    with Tracer().installed(lib):
        for (mod, name), original in originals.items():
            assert getattr(getattr(lib, mod), name) is not original, f"{mod}.{name}"
    for (mod, name), original in originals.items():
        assert getattr(getattr(lib, mod), name) is original


def test_scan_trace_counts_match_distinct_keys(lib):
    workload = Scan(ms=(3,))
    tracer, outcomes = traced_pass(lib, workload.build(lib, seed=0))
    ((op, res),) = outcomes
    assert workload.check(lib, op, res) == []
    rows = scan_rows(res.out)
    _, n_pp, n_cpp = scan_distinct(lib, rows)
    metrics = tracer.layer_metrics(passes=1)
    # every CPP claim holds, so is_cpp runs brute on f and on f + x
    assert metrics["spectra.brute.calls"] == n_pp + 2 * n_cpp
    assert metrics["spectra.is_cpp.calls"] == n_cpp
    assert metrics["spectra.brute.fails"] == 0
    assert metrics["families.scan.verify_ratio"] == pytest.approx((n_pp + n_cpp) / (len(rows) - 1))
    assert metrics["cli.main.calls"] == 1
    assert metrics["unit_circle.build_unit_circle.calls"] == 1
    assert metrics["families.serialize.bytes"] == len(res.out)
    assert set(metrics) == set(layer_metric_units())


def test_oracle_trace_counts_match_outputs(lib):
    ops = Oracle().build(lib, seed=0)
    tracer, outcomes = traced_pass(lib, ops)
    searched = {"charsum": 0, "delta_criterion": 0}
    for op, res in outcomes:
        assert Oracle().check(lib, op, res) == []
        for item in json.loads(res.out)["results"]:
            rep = item["report"]
            if rep["engine"] in searched:
                searched[rep["engine"]] += (2**op.n - 1 if rep["verdict"]
                                            else int(rep["witness"], 16))
    metrics = tracer.layer_metrics(passes=1)
    for engine in ("brute", "charsum", "delta_direct"):
        assert metrics[f"spectra.{engine}.calls"] == len(ops)
    assert metrics["spectra.niho.calls"] == 0
    assert metrics["spectra.brute.fails"] == sum(1 for op in ops if not op.labels[0])
    assert metrics["spectra.charsum.gammas"] == searched["charsum"]
    assert metrics["spectra.delta_direct.deltas"] == searched["delta_criterion"]


@pytest.mark.parametrize("workload", [Circle, Bigfield, Oracle])
def test_corpus_is_seeded_with_fixed_label_counts(lib, workload):
    first = workload().build(lib, seed=1)
    assert corpus_digest(first) == corpus_digest(workload().build(lib, seed=1))
    second = workload().build(lib, seed=2)
    assert corpus_digest(first) != corpus_digest(second)
    assert label_counts(first) == label_counts(second)
    assert True in {label for op in first for label in op.labels}
    assert False in {label for op in first for label in op.labels}


def test_scan_digest_is_that_of_the_default_output(lib):
    recorded = Scan().digests["scan --m 3"]
    plain = execute(lib, Op("scan", 6, ("scan", "--m", "3")))
    assert hashlib.sha256(plain.out.encode()).hexdigest() == recorded
    timed = execute(lib, Op("scan", 6, ("scan", "--m", "3", "--timing")))
    assert scan_digest(scan_rows(timed.out)) == recorded


def test_witness_checks_reject_false_witnesses(lib):
    ctx = lib.gf2n.field_new(8)
    linear = lib.gf2n.SparsePoly.make(ctx, [(1, 1), (5, 2)])  # x + 5x^2: 0 and 1/5 collide
    rep = lib.spectra.is_permutation_brute(linear)
    assert witness_problem(lib, linear, "brute", False, rep.witness_hex()) is None
    assert witness_problem(lib, linear, "brute", False, "0x1,0x2") is not None
    charsum = lib.spectra.is_pp_charsum(linear)
    assert witness_problem(lib, linear, "charsum", False, charsum.witness_hex()) is None
    pp = lib.gf2n.SparsePoly.make(ctx, [(1, 7)])  # gcd(7, 255) = 1
    assert witness_problem(lib, pp, "charsum", False, "0x1") is not None
    assert witness_problem(lib, pp, "delta_criterion", False, "0x1") is not None
    assert witness_problem(lib, pp, "brute", True, "0x1,0x2") is not None

    thm1 = lib.families.gen_theorem1(lib.exponents.make_niho(3, 1, 3, 3))[0].poly
    assert witness_problem(lib, thm1, "niho", False, "0x1") is not None
    circle = lib.unit_circle.build_unit_circle(thm1.ctx)
    control = lib.gf2n.SparsePoly.make(thm1.ctx, [(1, 10), (circle.elements[3], 52)])
    rep = lib.spectra.is_pp_delta_criterion(control)
    assert rep.engine == "niho" and not rep.verdict
    assert witness_problem(lib, control, "niho", False, rep.witness_hex()) is None


def test_refuses_to_run_without_sources(tmp_path):
    root = Path(run.__file__).resolve().parent.parent
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

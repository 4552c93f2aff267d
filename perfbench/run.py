"""Benchmark of nihoperm, driven through the calls its users make.

    python3 perfbench/run.py --workload scan|circle|bigfield|oracle|all \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the library is imported from the
checkout's `src/`.  All load comes from this one process and one thread, as
a closed loop: each operation starts when the previous one has returned.

With `--trace 0` the run times set-up (`setup_s`: the median of several
fresh imports of the package, each followed by `field_new`, the lazy field
tables and `build_unit_circle` for the workload's fields; numpy is already
loaded), builds the seeded corpus (not timed), then runs whole passes over
the corpus until `--seconds` have passed.  It reports `setup_s`,
`polys_per_s` (the median over passes), `poly_p50_ms`, `poly_p90_ms` and
`peak_rss_mb`, and on a line of its own `fail_ratio`.  With `--trace 1` it
runs half the time untraced and half traced, and reports the per-layer
metrics of `tracing.py` per traced pass, with the traced and untraced
throughput.

Every outcome is checked (see `workloads.py`).  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Results,
with the environment, are also written to `.perfbench/` in the checkout,
and a traced run writes its spans there.
"""

from __future__ import annotations

import os

# One thread: keep any numpy backend from starting a pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, layer_metric_units  # noqa: E402
from workloads import WORKLOADS, execute  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
MODULES = ("gf2n", "unit_circle", "exponents", "families", "spectra", "cli")
SETUP_ROUNDS = 7

END_TO_END = {
    "setup_s": "s",
    "polys_per_s": "1/s",
    "poly_p50_ms": "ms",
    "poly_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
TRACE_METRICS = {
    "trace.polys_per_s": "1/s",
    "trace.untraced_polys_per_s": "1/s",
    "trace.overhead": "ratio",
}


def import_library() -> SimpleNamespace:
    """A fresh import of the nihoperm modules from the checkout's src/."""
    for name in [k for k in sys.modules if k == "nihoperm" or k.startswith("nihoperm.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"nihoperm.{m}") for m in MODULES})
    if not Path(lib.gf2n.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"nihoperm was imported from {lib.gf2n.__file__}, not {SRC}")
    return lib


def setup_round(fields) -> tuple:
    """Time one import plus the first touch of each field's lazy state."""
    t0 = perf_counter()
    lib = import_library()
    for n in fields:
        ctx = lib.gf2n.field_new(n)
        ctx.domain()
        ctx.trace_bits()  # squares, which builds the reduction tables too
        ctx.subfield_mask()
        lib.unit_circle.build_unit_circle(ctx)
    return perf_counter() - t0, lib


def _read(path: str):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def environment() -> dict:
    """Versions and hardware, read from /proc and /sys without changing them."""
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    llc_level, llc = 0, None
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")) if cache.is_dir() else ():
        level = _read(str(index / "level"))
        if level and int(level) > llc_level:
            llc_level, llc = int(level), (_read(str(index / "size")) or "").strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "llc": f"L{llc_level} {llc}" if llc else None,
        "load": "one process, one thread, closed loop",
    }


def run_phase(lib, ops, seconds: float) -> tuple:
    """Whole passes over `ops` until `seconds` have passed (at least one).

    Returns the (op, outcome) pairs in order and the wall time of each pass.
    """
    outcomes, pass_s = [], []
    t0 = perf_counter()
    while not pass_s or perf_counter() - t0 < seconds:
        start = perf_counter()
        outcomes.extend((op, execute(lib, op)) for op in ops)
        pass_s.append(perf_counter() - start)
    return outcomes, pass_s


def check_all(lib, workload, outcomes) -> list:
    """Problems per outcome; identical outcomes of one operation are checked once."""
    seen = {}
    problems = []
    for op, res in outcomes:
        key = (id(op), res.rc, res.out, res.err, res.error,
               None if res.report is None else (res.report.verdict, res.report.witness))
        if key not in seen:
            try:
                seen[key] = workload.check(lib, op, res)
            except Exception as exc:  # unreadable output fails the operation
                seen[key] = [f"output could not be checked: {exc!r}"]
        problems.append(seen[key])
    return problems


def summarize(lib, workload, outcomes, problems, pass_s) -> dict:
    """Throughput is the median over passes of the verdicts that correct
    operations delivered per second of the pass, so a stall of the machine
    during one pass does not move it; latencies pool every correct sample."""
    ok = [not p for p in problems]
    per_pass = len(outcomes) // len(pass_s)
    rates = []
    for i, seconds in enumerate(pass_s):
        part = range(i * per_pass, (i + 1) * per_pass)
        rates.append(sum(workload.verdicts(*outcomes[j]) for j in part if ok[j]) / seconds)
    good = [pair for pair, fine in zip(outcomes, ok) if fine]
    samples = [s for op, res in good for s in workload.samples_ms(lib, op, res)]
    p50, p90 = np.percentile(samples, [50, 90]) if samples else (float("nan"),) * 2
    return {
        "polys_per_s": statistics.median(rates),
        "poly_p50_ms": float(p50),
        "poly_p90_ms": float(p90),
        "samples": len(samples),
        "beyond_p90": int(sum(1 for s in samples if s > p90)),
    }


def run(args) -> dict:
    workload = WORKLOADS[args.workload]()
    setups = []
    for _ in range(SETUP_ROUNDS):
        elapsed, lib = setup_round(workload.fields)
        setups.append(elapsed)
    ops = workload.build(lib, args.seed)

    if args.trace:
        untraced, untraced_s = run_phase(lib, ops, args.seconds / 2)
        tracer = Tracer()
        with tracer.installed(lib):
            traced, pass_s = run_phase(lib, ops, args.seconds / 2)
        outcomes = untraced + traced
    else:
        outcomes, pass_s = run_phase(lib, ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = check_all(lib, workload, outcomes)
    failed = sum(1 for p in problems if p)
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "ops_per_pass": len(ops),
        "passes": len(pass_s),
        "attempted": len(outcomes),
        "failed": failed,
        "problems": sorted({msg for p in problems for msg in p})[:20],
    }
    if args.trace:
        n_u = len(untraced)
        plain = summarize(lib, workload, untraced, problems[:n_u], untraced_s)
        with_trace = summarize(lib, workload, traced, problems[n_u:], pass_s)
        metrics = tracer.layer_metrics(len(pass_s))
        metrics["trace.polys_per_s"] = with_trace["polys_per_s"]
        metrics["trace.untraced_polys_per_s"] = plain["polys_per_s"]
        metrics["trace.overhead"] = plain["polys_per_s"] / with_trace["polys_per_s"]
        units = {**layer_metric_units(), **TRACE_METRICS}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.npz")
    else:
        stats = summarize(lib, workload, outcomes, problems, pass_s)
        metrics = {
            "setup_s": statistics.median(setups),
            "polys_per_s": stats["polys_per_s"],
            "poly_p50_ms": stats["poly_p50_ms"],
            "poly_p90_ms": stats["poly_p90_ms"],
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        result.update(samples=stats["samples"], beyond_p90=stats["beyond_p90"],
                      setup_rounds_s=setups, pass_s=pass_s)
    result["fail_ratio"] = failed / len(outcomes)
    result["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    return result


def print_summary(result: dict) -> None:
    print(f"workload={result['workload']} seed={result['seed']} trace={result['trace']} "
          f"passes={result['passes']} ops/pass={result['ops_per_pass']}")
    for name, m in result["metrics"].items():
        note = ""
        if name.startswith("poly_p"):
            note = f"  (n={result['samples']})"
            if name == "poly_p90_ms" and result["beyond_p90"] < 10:
                note += f"  only {result['beyond_p90']} samples beyond p90"
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"  {'fail_ratio':<36} {result['fail_ratio']:>14.6g} ratio"
          f"  ({result['failed']}/{result['attempted']})")
    for msg in result["problems"]:
        print(f"  problem: {msg}", file=sys.stderr)
    print("env " + json.dumps(result["env"]))


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    script = str(Path(__file__).resolve())
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        argv = [sys.executable, script, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "nihoperm" / "__init__.py").is_file():
        print(f"run.py: no nihoperm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    print_summary(result)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{result['workload']}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

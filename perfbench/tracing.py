"""Span tracing of nihoperm's public layer boundaries, installed from outside.

`Tracer.installed(lib)` wraps the traced functions of the modules `gf2n`,
`unit_circle`, `exponents`, `families`, `spectra` and `cli`.  A function is
replaced in every nihoperm module namespace that holds it, because several
modules import names from each other (`spectra.build_unit_circle`,
`families.is_permutation_brute`, `cli.scan_families`, ...): patching only the
defining module would let those internal calls escape the trace and corrupt
the self times of their callers.  `FieldCtx` methods are patched on the class.

Spans are kept in memory as parallel arrays (name, parent, start, end, units)
and written out by `save`.  A span's self time is its duration minus the
durations of its direct children; the program is single-threaded, so the
children never overlap.  The scalar `FieldCtx.mul` is only counted: it runs
millions of times on the circle paths and a span each would swamp the run.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Lazily built field tables: FieldCtx method -> the attribute that caches it.
# (gf2n._spread10, a module-level table, is cached in gf2n._SPREAD10.)
_TABLES = {
    "domain": "_domain",
    "_red_table": "_red",
    "trace_bits": "_trace_bits",
    "subfield_mask": "_subfield_mask",
}

# span name -> (count field, unit field or None); every span name also gets
# a `self_s` metric.  Counts skip a span nested directly in one of its own
# name (gen_prop1 calls gen_theorem1), so each counts the outermost call.
LAYER_SPANS = {
    "gf2n.mul_vec": ("calls", "elems"),
    "gf2n.sqr_vec": ("calls", "elems"),
    "gf2n.pow_vec": ("calls", "elems"),
    "gf2n.scalar_mul_vec": ("calls", "elems"),
    "gf2n.tables": (None, None),
    "unit_circle.build_unit_circle": ("calls", None),
    "unit_circle.complement_coset": ("calls", None),
    "exponents.make_niho": ("calls", None),
    "spectra.values_over_domain": ("calls", "points"),
    "spectra.brute": ("calls", "fails"),
    "spectra.is_cpp": ("calls", None),
    "spectra.niho": ("calls", "deltas"),
    "spectra.delta_direct": ("calls", "deltas"),
    "spectra.unique_solution": ("calls", None),
    "spectra.charsum": ("calls", "gammas"),
    "families.gen": ("calls", "instances"),
    "families.scan": (None, None),
    "families.serialize": (None, "bytes"),
    "cli.main": ("calls", None),
}

# Metrics whose values are not self times or span counts.
EXTRA_METRICS = {
    "gf2n.mul.calls": "count",
    "gf2n.vec_bytes_computed": "bytes",
    "families.scan.verify_ratio": "ratio",
}

_UNIT = {"calls": "count", "elems": "count", "points": "count", "fails": "count",
         "deltas": "count", "gammas": "count", "instances": "count", "bytes": "bytes"}


def layer_metric_units() -> dict:
    """Every per-layer metric name the tracer reports, with its unit."""
    out = {}
    for span, (count, unit) in LAYER_SPANS.items():
        if count:
            out[f"{span}.{count}"] = _UNIT[count]
        if unit:
            out[f"{span}.{unit}"] = _UNIT[unit]
        out[f"{span}.self_s"] = "s"
    out.update(EXTRA_METRICS)
    return out


def _search_count(report, ctx) -> int:
    """Gammas or deltas an engine examined, read from its report.

    The engines loop over 1, 2, ..., 2^n - 1 in integer order and stop at the
    first failure, so a failing witness is also the number examined.
    """
    if report.verdict:
        return ctx.mult_order
    return int(report.witness)


class Tracer:
    """In-memory span recorder; install it with `installed(lib)`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.units = array("d")
        self.counters = {"gf2n.mul.calls": 0, "gf2n.vec_bytes_computed": 0}
        self._stack = [-1]
        self._patched = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.units.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int, units: float = 0.0, name: str = None) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        self.units[idx] = units
        if name is not None:
            self.name[idx] = self._name_id(name)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, units=None, rename=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(
                idx,
                units(args, result) if units else 0.0,
                rename(args, result) if rename else None,
            )
            return result

        return traced

    def _kernel(self, name, fn):
        """A vector kernel: span with elements processed; leaf kernels also
        add the bytes of the array they compute."""
        leaf = name != "gf2n.pow_vec"
        counters = self.counters
        tracer = self

        @functools.wraps(fn)
        def traced(ctx, *args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(ctx, *args, **kwargs)
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(idx, float(result.size))
            if leaf:
                counters["gf2n.vec_bytes_computed"] += result.nbytes
            return result

        return traced

    def _table(self, fn, built):
        """A lazy table: a span only when `built(*args)` says the call builds it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args):
            if built(*args):
                return fn(*args)
            idx = tracer.open("gf2n.tables")
            try:
                return fn(*args)
            finally:
                tracer.close(idx)

        return traced

    def _serializer(self, fn):
        """scan_to_csv / scan_to_jsonl: span plus characters written."""
        tracer = self

        @functools.wraps(fn)
        def traced(records, stream, *args, **kwargs):
            before = stream.tell()
            idx = tracer.open("families.serialize")
            try:
                fn(records, stream, *args, **kwargs)
            finally:
                tracer.close(idx, float(stream.tell() - before))

        return traced

    def _counted(self, fn, counter):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -------------------------------------------------------

    def _replace(self, original, replacement) -> None:
        """Swap `original` for `replacement` in every nihoperm module."""
        for modname, module in list(sys.modules.items()):
            if modname != "nihoperm" and not modname.startswith("nihoperm."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _replace_method(self, cls, attr, make) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            return
        self._patched.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def _wrap_functions(self, module, wrappers) -> None:
        for attr, make in wrappers.items():
            original = getattr(module, attr, None)
            if original is not None:
                self._replace(original, make(original))

    @contextmanager
    def installed(self, lib):
        """Trace every layer boundary of `lib` for the duration of the block."""
        ctx_cls = lib.gf2n.FieldCtx
        for attr in ("mul_vec", "sqr_vec", "pow_vec", "scalar_mul_vec"):
            self._replace_method(ctx_cls, attr, lambda f, a=attr: self._kernel(f"gf2n.{a}", f))
        for attr, cache in _TABLES.items():
            self._replace_method(ctx_cls, attr, lambda f, c=cache: self._table(
                f, lambda ctx: getattr(ctx, c, None) is not None))
        self._replace_method(ctx_cls, "mul", lambda f: self._counted(f, "gf2n.mul.calls"))
        self._wrap_functions(lib.gf2n, {"_spread10": lambda f: self._table(
            f, lambda: getattr(lib.gf2n, "_SPREAD10", None) is not None)})

        span = self._span
        self._wrap_functions(lib.unit_circle, {
            "build_unit_circle": lambda f: span("unit_circle.build_unit_circle", f),
            "complement_coset": lambda f: span("unit_circle.complement_coset", f),
        })
        self._wrap_functions(lib.exponents, {
            "make_niho": lambda f: span("exponents.make_niho", f),
        })
        self._wrap_functions(lib.spectra, {
            "_values_over_domain": lambda f: span(
                "spectra.values_over_domain", f, units=lambda a, r: float(r.size)),
            "is_permutation_brute": lambda f: span(
                "spectra.brute", f, units=lambda a, r: float(not r.verdict)),
            "is_cpp": lambda f: span("spectra.is_cpp", f),
            "is_pp_charsum": lambda f: span(
                "spectra.charsum", f, units=lambda a, r: _search_count(r, a[0].ctx)),
            "is_pp_delta_criterion": lambda f: span(
                "spectra.delta_direct", f,
                units=lambda a, r: 1 if len(a[0].terms) == 1 else _search_count(r, a[0].ctx),
                rename=lambda a, r: "spectra.niho" if r.engine == "niho" else None),
            "unique_solution_check": lambda f: span("spectra.unique_solution", f),
        })
        gen = {attr: (lambda f: span("families.gen", f, units=lambda a, r: float(len(r))))
               for attr in ("gen_theorem1", "gen_prop1", "gen_prop3", "gen_cpp_cor2",
                            "gen_cpp_class", "gen_conjecture")}
        gen["scan_families"] = lambda f: span(
            "families.scan", f, units=lambda a, r: float(len(r)))
        for attr in ("scan_to_csv", "scan_to_jsonl"):
            gen[attr] = self._serializer
        self._wrap_functions(lib.families, gen)
        self._wrap_functions(lib.cli, {"main": lambda f: span("cli.main", f)})
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patched):
                setattr(owner, attr, original)
            self._patched.clear()

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict:
        """The recorded spans as numpy arrays; a parent of -1 means none."""
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "units": np.array(self.units, dtype=np.float64),
        }

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics, each divided by the number of traced passes."""
        spans = self.arrays()
        name, parent = spans["name"], spans["parent"]
        dur = spans["end"] - spans["start"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_t = dur - child
        pname = np.where(nested, name[np.maximum(parent, 0)], -1)
        outer = pname != name
        out = {}
        for span_name, (count, unit) in LAYER_SPANS.items():
            sid = self._ids.get(span_name, -2)
            mine = name == sid
            top = mine & outer
            if count:
                out[f"{span_name}.{count}"] = int(top.sum()) / passes
            if unit:
                out[f"{span_name}.{unit}"] = float(spans["units"][top].sum()) / passes
            out[f"{span_name}.self_s"] = float(self_t[mine].sum()) / passes
        for key in ("gf2n.mul.calls", "gf2n.vec_bytes_computed"):
            out[key] = self.counters[key] / passes
        scan_id = self._ids.get("families.scan", -2)
        verify_ids = [self._ids.get(k, -2) for k in ("spectra.brute", "spectra.is_cpp")]
        verifications = int((np.isin(name, verify_ids) & (pname == scan_id)).sum())
        rows = float(spans["units"][name == scan_id].sum())
        out["families.scan.verify_ratio"] = verifications / rows if rows else 0.0
        return out

    def save(self, path) -> None:
        """Write the spans and the name table as a compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

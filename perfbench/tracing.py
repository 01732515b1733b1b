"""In-process traced run: one span around each public oscmap function.

Module functions are wrapped by rebinding their name in every oscmap module
namespace that holds them, so calls through `analysis.stability_limit` and
through a `from .phasemap import scheme_matrix` binding are both caught.
Methods of Series and Scheme are wrapped on the class. Spans (name, start,
end, parent, invocation) are kept in flat arrays and reduced to per-name
counts, inclusive times and self times after each invocation. A public name
that a later version of the program no longer has is reported as absent.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import io
import os
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

import checks
import proc
from stats import self_times
from workloads import Invocation, build, shuffled

LAYER_MODULES = ("series", "schemes", "phasemap", "analysis", "sim", "cli")
#: Classes whose methods are layer boundaries, by module.
TRACED_CLASSES = {"series": "Series", "schemes": "Scheme"}
#: Series arithmetic reaches its layer through these operators.
TRACED_DUNDERS = {"__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                  "__truediv__", "__call__"}
IMPORT_REPEATS = 5
IMPORTED_PACKAGES = ("oscmap", "numpy", "mpmath")

#: (metric, unit) in the order BENCHMARK.json lists them. A metric is
#: "<span>.<stat>" with stat calls, ms, us or self_ms, or one of SPECIAL.
PER_LAYER = (
    ("import.total_ms", "ms"), ("import.numpy_ms", "ms"), ("import.mpmath_ms", "ms"),
    ("analysis.stability_limit.ms", "ms"), ("analysis.stability_limit.calls", "count"),
    ("analysis.stability_limit.matrix_evals", "count"),
    ("analysis.order_coefficient.calls", "count"),
    ("analysis.order_coefficient.self_ms", "ms"),
    ("analysis.omega_a_series.calls", "count"), ("analysis.omega_a_series.ms", "ms"),
    ("analysis.effective_param_series.ms", "ms"),
    ("analysis.convergence_study.ms", "ms"),
    ("series.mul.calls", "count"), ("series.mul.us", "us"), ("series.sqrt.ms", "ms"),
    ("series.reciprocal.ms", "ms"), ("series.asin.ms", "ms"), ("series.self_ms", "ms"),
    ("phasemap.scheme_series_matrix.ms", "ms"),
    ("phasemap.scheme_matrix.calls", "count"), ("phasemap.scheme_matrix.us", "us"),
    ("phasemap.spectral.calls", "count"), ("phasemap.spectral.us", "us"),
    ("schemes.active_steps.calls", "count"), ("schemes.is_symmetric.calls", "count"),
    ("phasemap.propagate_closed_form.calls", "count"),
    ("phasemap.propagate_closed_form.us", "us"),
    ("sim.iterate.ms", "ms"), ("sim.iterate.ns_per_step", "ns"),
    ("cli.main.ms", "ms"), ("cli.self_ms", "ms"), ("cli.rows", "count"),
    ("cli.bytes_out", "bytes"), ("schemes.get_scheme.ms", "ms"),
    ("trace.overhead_ratio", "ratio"), ("trace.coverage", "ratio"),
)
SPECIAL = {"import.total_ms", "import.numpy_ms", "import.mpmath_ms",
           "analysis.stability_limit.matrix_evals", "series.self_ms",
           "cli.self_ms", "cli.rows", "cli.bytes_out", "sim.iterate.ns_per_step",
           "trace.overhead_ratio", "trace.coverage"}
STATS = ("calls", "self_ms", "ms", "us")

STABILITY = "analysis.stability_limit"
MATRIX = "phasemap.scheme_matrix"
MAIN = "cli.main"
#: The span group each workload is designed to spend most of its time in.
DOMINANT = {"analyze": ("analysis.stability_limit",),
            "sweep": ("phasemap.scheme_matrix", "phasemap.spectral"),
            "simulate": ("sim.iterate",), "series": ("series.",)}


def split_metric(metric: str) -> tuple[str, str]:
    for stat in STATS:
        if metric.endswith("." + stat):
            return metric[: -len(stat) - 1], stat
    raise ValueError(f"metric {metric!r} has no known statistic")


def expected_spans() -> set[str]:
    """Span names the per-layer metrics read."""
    return {split_metric(m)[0] for m, _ in PER_LAYER if m not in SPECIAL}


class Tracer:
    """Wraps oscmap's public functions and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self._wrapped: dict[object, object] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        if fn in self._wrapped:
            return self._wrapped[fn]
        nid = self._name_id(name)
        nids, starts, ends, parents = self.nid, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(nids)
            nids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        self._wrapped[fn] = traced
        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> list[str]:
        """Wrap every public function; returns the expected spans not found."""
        modules = {}
        for short in LAYER_MODULES:
            try:
                modules[short] = importlib.import_module(f"oscmap.{short}")
            except ImportError:
                continue
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "oscmap" or n.startswith("oscmap."))]
        for short, mod in modules.items():
            for name in getattr(mod, "__all__", ()):
                fn = mod.__dict__.get(name)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                traced = self._wrap(fn, f"{short}.{name}")
                for ns in namespaces:
                    if ns.__dict__.get(name) is fn:
                        self._rebind(ns, name, traced)
            cls = getattr(mod, TRACED_CLASSES.get(short, ""), None)
            if inspect.isclass(cls):
                for attr, fn in list(vars(cls).items()):
                    if inspect.isfunction(fn) and (
                            not attr.startswith("_") or attr in TRACED_DUNDERS):
                        self._rebind(cls, attr,
                                     self._wrap(fn, f"{short}.{fn.__name__.strip('_')}"))
        return sorted(expected_spans() - set(self.names))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def clear(self) -> None:
        for arr in (self.nid, self.start, self.end, self.parent):
            del arr[:]
        del self._stack[1:]


class LayerTotals:
    """Per-span-name sums over every traced invocation of a run."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.matrix_evals = 0
        self.invocations = 0

    def add(self, names: list[str], nid, starts, ends, parents) -> None:
        self.invocations += 1
        selfs = self_times(starts, ends, parents)
        stab = names.index(STABILITY) if STABILITY in names else -2
        matrix = names.index(MATRIX) if MATRIX in names else -2
        under = []
        for i, (n, p) in enumerate(zip(nid, parents)):
            under.append(n == stab or (p >= 0 and under[p]))
            if n == matrix and p >= 0 and under[p]:
                self.matrix_evals += 1
            name = names[n]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_ns[name] = self.total_ns.get(name, 0) + ends[i] - starts[i]
            self.self_ns[name] = self.self_ns.get(name, 0) + selfs[i]

    def per_invocation(self, span: str, stat: str) -> float:
        n = max(self.invocations, 1)
        calls = self.calls.get(span, 0)
        if stat == "calls":
            return calls / n
        if stat == "us":
            return self.total_ns.get(span, 0) / 1e3 / calls if calls else 0.0
        table = self.self_ns if stat == "self_ms" else self.total_ns
        return table.get(span, 0) / 1e6 / n

    def share(self, group: tuple[str, ...]) -> float:
        """Share of cli.main time spent in a group of spans.

        A name counts with its inclusive time; a prefix ending in "." counts
        the self time of every span it matches, which for a layer that only
        calls itself is the inclusive time of its outermost spans.
        """
        main = self.total_ns.get(MAIN, 0)
        got = sum(self.total_ns.get(p, 0) for p in group if not p.endswith("."))
        got += sum(ns for name, ns in self.self_ns.items()
                   if any(p.endswith(".") and name.startswith(p) for p in group))
        return got / main if main else 0.0


def import_breakdown(root: Path) -> dict[str, float]:
    """Median cumulative `-X importtime` ms of oscmap, numpy and mpmath."""
    env = proc.child_env(root)
    samples: dict[str, list[float]] = {p: [] for p in IMPORTED_PACKAGES}
    for _ in range(IMPORT_REPEATS):
        res = proc.run([sys.executable, "-X", "importtime", "-c", "import oscmap"],
                       env, root)
        if res.returncode != 0:
            raise proc.BenchError(f"import oscmap failed:\n{res.stderr}")
        seen = {}
        for line in res.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            name = name.strip()
            if name in samples and name not in seen and cumulative.strip().isdigit():
                seen[name] = int(cumulative) / 1e3
        for p in IMPORTED_PACKAGES:
            samples[p].append(seen.get(p, 0.0))
    return {p: statistics.median(v) for p, v in samples.items()}


def _call_main(main, inv: Invocation) -> tuple[float, str, str | None]:
    """(seconds, stdout, failure) of one in-process cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(inv.argv))
    except Exception:  # the run goes on; the invocation counts as failed
        code = None
        failure = traceback.format_exc()
    elapsed = time.perf_counter() - t0
    if failure is None and code != 0:
        failure = f"exit code {code}: {err.getvalue()}"
    return elapsed, out.getvalue(), failure


class SpanLog:
    """Spans of the first traced round, kept to be written out at the end."""

    def __init__(self):
        self.order: list[Invocation] = []
        self.cols = {"nid": array("i"), "start": array("q"), "end": array("q"),
                     "parent": array("i"), "inv": array("i")}

    def keep(self, tracer: Tracer, inv: Invocation) -> None:
        offset = len(self.cols["nid"])
        self.cols["nid"].extend(tracer.nid)
        self.cols["start"].extend(tracer.start)
        self.cols["end"].extend(tracer.end)
        self.cols["parent"].extend(p + offset if p >= 0 else -1 for p in tracer.parent)
        self.cols["inv"].extend([len(self.order)] * len(tracer.nid))
        self.order.append(inv)

    def write(self, path: Path, names: list[str]) -> None:
        """Gzipped tab-separated text, one span a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        c = self.cols
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for k, inv in enumerate(self.order):
                fh.write(f"# invocation {k}: {' '.join(inv.argv)}\n")
            fh.write("invocation\tname\tstart_ns\tend_ns\tparent\n")
            for i, nid in enumerate(c["nid"]):
                fh.write(f"{c['inv'][i]}\t{names[nid]}\t{c['start'][i]}\t"
                         f"{c['end'][i]}\t{c['parent'][i]}\n")


def trace_run(root: Path, workload: str, seed: int, seconds: float,
              spans_path: Path) -> dict:
    """Per-layer metrics of one workload, plus run facts for the metadata line.

    Each round runs the workload's invocations untraced, then traced, in one
    seeded order; rounds repeat until `seconds` have passed.
    """
    imports = import_breakdown(root)
    for var in proc.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    cli = importlib.import_module("oscmap.cli")
    proc.require_from_checkout(root, cli.__file__)
    invocations, rng = build(workload, seed)
    _call_main(cli.main, invocations[0])  # lazy state and caches, untimed

    tracer, totals, log = Tracer(), LayerTotals(), SpanLog()
    failed = rows = bytes_out = steps = rounds = 0
    plain_s = traced_s = 0.0
    absent: list[str] = []
    failures: list[str] = []
    t_start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - t_start < seconds:
        order = shuffled(invocations, rng)
        plain_s += sum(_call_main(cli.main, inv)[0] for inv in order)
        absent = tracer.install()
        try:
            for inv in order:
                tracer.clear()
                elapsed, text, failure = _call_main(cli.main, inv)
                traced_s += elapsed
                if failure is None:
                    try:
                        rows += checks.check(inv, text)
                    except checks.CheckError as exc:
                        failure = str(exc)
                if failure is not None:
                    failed += 1
                    failures.append(f"{' '.join(inv.argv)}: {failure}")
                bytes_out += len(text.encode())
                if workload == "simulate":
                    steps += inv.units
                totals.add(tracer.names, tracer.nid, tracer.start, tracer.end,
                           tracer.parent)
                if rounds == 0:
                    log.keep(tracer, inv)
        finally:
            tracer.uninstall()
        rounds += 1
    log.write(spans_path, tracer.names)

    n = totals.invocations
    main_ns = totals.total_ns.get(MAIN, 0)
    cli_self = totals.self_ns.get(MAIN, 0) / main_ns if main_ns else 0.0
    special = {
        "import.total_ms": imports["oscmap"],
        "import.numpy_ms": imports["numpy"],
        "import.mpmath_ms": imports["mpmath"],
        "analysis.stability_limit.matrix_evals": totals.matrix_evals / n,
        "series.self_ms": sum(ns for name, ns in totals.self_ns.items()
                              if name.startswith("series.")) / 1e6 / n,
        "cli.self_ms": totals.per_invocation(MAIN, "self_ms"),
        "cli.rows": rows / n,
        "cli.bytes_out": bytes_out / n,
        "sim.iterate.ns_per_step":
            totals.total_ns.get("sim.iterate", 0) / steps if steps else 0.0,
        "trace.overhead_ratio": traced_s / plain_s,
        "trace.coverage": 1.0 - cli_self if main_ns else 0.0,
    }
    metrics = {
        metric: {"value": special[metric] if metric in SPECIAL
                 else totals.per_invocation(*split_metric(metric)), "unit": unit}
        for metric, unit in PER_LAYER}
    shares = {"+".join(group): totals.share(group) for group in DOMINANT.values()}
    shares["cli.self"] = cli_self
    facts = {"rounds": rounds, "invocations": n, "absent": absent,
             "shares_of_cli_main": shares, "failures": failures[:5],
             "spans_written": len(log.cols["nid"]), "spans_file": str(spans_path)}
    return {"attempted": n, "failed": failed, "metrics": metrics, "facts": facts}

"""oscmap benchmark: fresh-interpreter CLI workloads and a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

With --trace 0 the driver is a closed loop with one client: it starts one
`python -m oscmap ...` child at a time (so the child has a core to itself),
times it from outside, reads its CPU time and peak RSS from os.wait4, and
checks its output. Between any two invocations it runs the reference task, a
fixed child that uses none of oscmap's code, and divides each invocation's CPU
time by the mean of the reference tasks on either side of it: on a shared host
the speed of a core drifts by tens of percent within seconds, and the ratio
cancels most of that drift. Rounds of the workload's invocations, each round
in a seeded order, repeat until --seconds have passed. Set-up is the median
CPU time of `import oscmap` in a fresh interpreter, sampled before the first
round and after every round, each sample scaled the same way to a core on
which the reference task takes REFERENCE_NOMINAL_S. With --trace 1 the same
invocations run in this process through oscmap.cli.main with a span around
every public function (see tracing.py), and the per-layer metrics are printed
instead.

The last line of stdout is one JSON object: correct, attempted, failed and
the gated metrics (END_TO_END, or tracing.PER_LAYER with --trace 1); the
line before it holds run metadata, including the raw CPU and wall-clock
metrics and failed_ratio. `--workload all` prints a table of every end-to-end
metric per workload, with sample counts and quartiles, instead.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import proc
import stats
import tracing
from workloads import BUILDERS, build, shuffled

SETUP_REPEATS = 3
SETUP_CODE = ("import time; t0 = time.process_time(); import oscmap; "
              "t1 = time.process_time(); print(t1 - t0); print(oscmap.__file__)")
#: The reference task: an interpreter start, a numpy import and a pure-Python
#: loop, the kinds of work an oscmap invocation does, with none of its code.
REFERENCE_N = 600_000
REFERENCE_CODE = (f"import numpy\ns = 0\nfor i in range({REFERENCE_N}):\n"
                  "    s += i * i\nprint(s)")
REFERENCE_SUM = (REFERENCE_N - 1) * REFERENCE_N * (2 * REFERENCE_N - 1) // 6
#: The reference task's CPU time on an idle core of the 2-vCPU Xeon host the
#: benchmark was tuned on (Python 3.11, numpy 2.4). setup_s is import time at
#: that speed: over ten runs of the same code there, the raw import time's
#: quartiles spread by 17-27% of its median, the scaled one's by 5-7%.
REFERENCE_NOMINAL_S = 0.2
#: Gated metrics, in the order BENCHMARK.json lists them. cpu_round_ref is the
#: CPU time of one round in reference-task units: over ten runs of the same
#: code on that host, the quartiles of cpu_ms_p50 and wall_ms_p50 spread by
#: 13-31% of their median, those of cpu_round_ref by 2-7%.
END_TO_END = (("cpu_round_ref", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
#: Raw CPU and wall-clock metrics, reported beside the gated ones, not gated.
REPORTED = (("cpu_ms_p50", "ms"), ("units_per_cpu_s", "1/s"),
            ("import_s_p50", "s"), ("ref_cpu_ms_p50", "ms"), ("wall_ms_p50", "ms"),
            ("wall_ms_tail", "ms"), ("units_per_s", "1/s"))


def _import_seconds(root: Path, env: dict[str, str]) -> float:
    res = proc.run([sys.executable, "-c", SETUP_CODE], env, root)
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2:
        raise proc.BenchError(f"import oscmap failed:\n{res.stderr}")
    proc.require_from_checkout(root, lines[1])
    return float(lines[0])


def _reference_seconds(root: Path, env: dict[str, str]) -> float:
    res = proc.run([sys.executable, "-c", REFERENCE_CODE], env, root)
    if res.returncode != 0 or res.stdout.strip() != str(REFERENCE_SUM):
        raise proc.BenchError(f"the reference task failed:\n{res.stderr}")
    return res.cpu_s


def _failure(res: proc.ChildResult) -> str | None:
    if res.timed_out:
        return "timed out"
    if res.returncode != 0:
        return f"exit code {res.returncode}: {res.stderr.strip()[-300:]}"
    if "Traceback (most recent call last)" in res.stderr:
        return "traceback on stderr"
    return None


def measure(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """Fresh-interpreter samples of one workload; every output is checked."""
    env = proc.child_env(root)
    invocations, rng = build(workload, seed)
    # untimed warm-up: writes the .pyc files and pages in the interpreter
    proc.run(proc.oscmap_argv(invocations[0].argv), env, root)
    ref = [_reference_seconds(root, env)]

    def beside_reference(child):
        """child()'s result and the mean reference time on either side of it."""
        out = child()
        ref.append(_reference_seconds(root, env))
        return out, (ref[-2] + ref[-1]) / 2

    setup, setup_raw = [], []

    def set_up():
        import_s, ref_s = beside_reference(lambda: _import_seconds(root, env))
        setup_raw.append(import_s)
        setup.append(import_s / ref_s * REFERENCE_NOMINAL_S)

    for _ in range(SETUP_REPEATS):
        set_up()
    wall, cpu, rel, rss, units, index, round_of = [], [], [], [], [], [], []
    failures: list[str] = []
    rounds = 0
    t_start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - t_start < seconds:
        for inv in shuffled(invocations, rng):
            res, ref_s = beside_reference(
                lambda: proc.run(proc.oscmap_argv(inv.argv), env, root))
            failure = _failure(res)
            if failure is None:
                try:
                    checks.check(inv, res.stdout)
                except checks.CheckError as exc:
                    failure = str(exc)
            if failure is not None:
                failures.append(f"{' '.join(inv.argv)}: {failure}")
            wall.append(res.wall_s * 1e3)
            cpu.append(res.cpu_s * 1e3)
            rel.append(res.cpu_s / ref_s)
            rss.append(res.maxrss_kb / 1024.0)
            units.append(inv.units)
            index.append(invocations.index(inv))
            round_of.append(rounds)
        rounds += 1
        set_up()
    return {"workload": workload, "seed": seed, "rounds": rounds, "wall_ms": wall,
            "cpu_ms": cpu, "cpu_rel": rel, "ref_cpu_ms": [r * 1e3 for r in ref],
            "rss_mb": rss, "units": units, "index": index, "round": round_of,
            "setup_s": setup, "import_s": setup_raw, "failures": failures,
            "argv": [list(inv.argv) for inv in invocations]}


def end_to_end(sample: dict) -> dict[str, dict]:
    """Every end-to-end metric with its samples' count and quartiles."""
    wall, cpu, units = sample["wall_ms"], sample["cpu_ms"], sample["units"]
    tail_value, tail_pct = stats.tail(wall)
    values = {
        # quartiles over rounds: each round's summed ratios
        "cpu_round_ref": (stats.round_cost(sample["index"], sample["cpu_rel"]),
                          stats.round_sums(sample["round"], sample["cpu_rel"])),
        "setup_s": (statistics.median(sample["setup_s"]), sample["setup_s"]),
        "peak_rss_mb": (max(sample["rss_mb"]), sample["rss_mb"]),
        "cpu_ms_p50": (statistics.median(cpu), cpu),
        "import_s_p50": (statistics.median(sample["import_s"]), sample["import_s"]),
        "units_per_cpu_s": (sum(units) / (sum(cpu) / 1e3),
                            [u / (c / 1e3) for u, c in zip(units, cpu)]),
        "ref_cpu_ms_p50": (statistics.median(sample["ref_cpu_ms"]),
                           sample["ref_cpu_ms"]),
        "wall_ms_p50": (statistics.median(wall), wall),
        "wall_ms_tail": (tail_value, wall),
        "units_per_s": (sum(units) / (sum(wall) / 1e3),
                        [u / (w / 1e3) for u, w in zip(units, wall)]),
    }
    out = {}
    for name, unit in END_TO_END + REPORTED:
        value, samples = values[name]
        q1, q2, q3 = stats.quartiles(samples)
        out[name] = {"value": value, "unit": unit, "n": len(samples),
                     "q1": q1, "median": q2, "q3": q3}
    out["wall_ms_tail"]["percentile"] = tail_pct
    return out


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def metadata(root: Path, workload: str, seed: int, seconds: float) -> dict:
    versions = {}
    for package in ("numpy", "mpmath"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "commit": _commit(root), "source_sha256": _source_digest(root),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": versions["numpy"], "mpmath": versions["mpmath"],
            "child_env": {v: "1" for v in proc.THREAD_VARS}}


def _print_table(results: list[tuple[str, dict, dict]]) -> None:
    cols = ("workload", "metric", "unit", "n", "q1", "median", "q3", "value")
    print("  ".join(f"{c:>14}" for c in cols))
    for workload, metrics, sample in results:
        for name, m in metrics.items():
            row = (workload, name, m["unit"], m["n"], *(f"{m[k]:.6g}" for k in
                                                        ("q1", "median", "q3", "value")))
            print("  ".join(f"{c:>14}" for c in row))
        attempted = len(sample["wall_ms"])
        ratio = len(sample["failures"]) / attempted
        print(f"{workload:>14}  {'failed_ratio':>14}  {'ratio':>14}  {attempted:>14}"
              f"  {'':>14}  {'':>14}  {'':>14}  {ratio:>14.6g}")
        pct = metrics["wall_ms_tail"]["percentile"]
        where = f"p{pct:.4g}" if pct is not None else "the maximum (too few samples)"
        print(f"{workload:>14}  wall_ms_tail is {where} of {attempted} invocations"
              f" in {sample['rounds']} rounds")
        for failure in sample["failures"][:5]:
            print(f"{workload:>14}  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*BUILDERS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        proc.source_root(root)
        if args.workload == "all":
            results = []
            for workload in BUILDERS:
                sample = measure(root, workload, args.seed, args.seconds)
                results.append((workload, end_to_end(sample), sample))
            print(json.dumps(metadata(root, "all", args.seed, args.seconds)))
            _print_table(results)
            return 0
        meta = metadata(root, args.workload, args.seed, args.seconds)
        if args.trace:
            spans = root / "perfbench" / "out" / f"spans-{args.workload}.tsv.gz"
            traced = tracing.trace_run(root, args.workload, args.seed,
                                       args.seconds, spans)
            meta.update(traced["facts"])
            attempted, failed = traced["attempted"], traced["failed"]
            metrics = traced["metrics"]
        else:
            sample = measure(root, args.workload, args.seed, args.seconds)
            summary = end_to_end(sample)
            attempted, failed = len(sample["wall_ms"]), len(sample["failures"])
            meta.update(rounds=sample["rounds"], argv=sample["argv"],
                        failed_ratio=failed / attempted,
                        failures=sample["failures"][:5],
                        reported={k: summary[k] for k, _ in REPORTED},
                        samples={k: summary[k]["n"] for k, _ in END_TO_END})
            metrics = {k: {"value": summary[k]["value"], "unit": unit}
                       for k, unit in END_TO_END}
    except proc.BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(meta))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

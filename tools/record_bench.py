"""Record perfbench results of one or more checkouts in a BENCH_*.json file.

Runs `perfbench/run.py` once per workload and repeat in each checkout, for
the run length that BENCHMARK.json sets and with a fixed seed, from that
checkout's root and with PYTHONDONTWRITEBYTECODE=1, and keeps the last two
lines of each run: the run metadata and the gated metrics. Checkouts are
visited in turn within each repeat, in an order that alternates from one
repeat to the next, so a drift in host speed falls on all of them alike.
Compare only checkouts whose `src/` holds no `__pycache__`, such as fresh
`git clone`s; any other is refused. For example, with the parent commit
cloned to ../parent:

    python3 tools/record_bench.py --out BENCH_16.json \\
        --checkout parent=../parent --checkout change=. --repeats 1
    python3 tools/record_bench.py --out series.json --workload series \\
        --checkout parent=../parent --checkout change=. --repeats 10

The summary holds, per workload, checkout and gated metric, the median and
quartiles over the repeats.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("analyze", "sweep", "simulate", "series")
SEED = 16
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _revision(root: Path) -> str | None:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _run(root: Path, workload: str, seconds: float) -> dict:
    """One perfbench run: its metadata line and its last line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds)],
        cwd=root, env=env, capture_output=True, text=True, check=False)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        sys.exit(f"record_bench: {workload} in {root} failed:\n{res.stderr}")
    return {"metadata": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def _summary(runs: list[dict]) -> dict:
    values: dict = {}
    for run in runs:
        metrics = values.setdefault(run["workload"], {}).setdefault(
            run["checkout"], {})
        for name, m in run["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
        metrics.setdefault("failed", []).append(run["result"]["failed"])
    out: dict = {}
    for workload, checkouts in values.items():
        for label, metrics in checkouts.items():
            for name, vs in metrics.items():
                q1, _, q3 = (statistics.quantiles(vs, n=4) if len(vs) > 1
                              else (vs[0],) * 3)
                out.setdefault(workload, {}).setdefault(label, {})[name] = {
                    "n": len(vs), "q1": q1, "median": statistics.median(vs),
                    "q3": q3, "values": vs}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--checkout", action="append", required=True,
                        metavar="LABEL=PATH", help="a checkout to run; repeatable")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="a workload to run; repeatable (default: all)")
    parser.add_argument("--repeats", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = json.loads(BENCHMARK.read_text(encoding="utf-8"))["run_seconds"]
    checkouts = []
    for item in args.checkout:
        label, sep, path = item.partition("=")
        root = Path(path).resolve()
        if not sep or not (root / "perfbench" / "run.py").is_file():
            parser.error(f"--checkout {item!r}: expected LABEL=PATH of a checkout")
        # cached bytecode skips the compile that a fresh checkout pays
        if any((root / "src").rglob("__pycache__")):
            parser.error(f"--checkout {item!r}: src/ holds a __pycache__; "
                         "use a fresh clone")
        checkouts.append((label, root))
    runs = []
    for repeat in range(args.repeats):
        order = checkouts if repeat % 2 == 0 else checkouts[::-1]
        for workload in args.workload or WORKLOADS:
            for label, root in order:
                run = _run(root, workload, seconds)
                runs.append({"checkout": label, "workload": workload,
                             "repeat": repeat, **run})
                value = run["result"]["metrics"]["cpu_round_ref"]["value"]
                print(f"{repeat} {workload} {label}: cpu_round_ref {value:.4f}",
                      file=sys.stderr)
    doc = {
        "seed": SEED, "seconds": seconds, "repeats": args.repeats,
        "host": {"node": platform.node(), "machine": platform.machine(),
                 "cpu": _cpu_model(), "nproc": os.cpu_count()},
        "python": platform.python_version(),
        "checkouts": {label: {"revision": _revision(root)}
                      for label, root in checkouts},
        "summary": _summary(runs),
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

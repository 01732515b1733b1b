"""Seeded workloads: the oscmap command lines each benchmark run sends.

A workload is one round of invocations. The seed picks x values, grid ends,
initial conditions and the order of each round; sizes (points, steps, K) are
fixed so that the cost of a round does not depend on the seed. The program
sees only the generated argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from reference import X_MAX

REGISTRY = ("SV", "LF1", "LF1T", "FR", "C", "M", "BM")

SWEEP_POINTS = 10_000
SIM_STEPS = 1_000_000
SIM_STRIDE = 1_000
SERIES_K = 120

#: Radius of convergence of each frequency series, from a ratio test at
#: K = 120 (BM's complex singularities sit near |x| = 1, well inside its
#: stable window); x is drawn from at most half of it, so K = 120 converges.
SERIES_RADIUS = {"SV": 2.0, "FR": 1.7, "C": 2.8, "BM": 1.0}


@dataclass(frozen=True)
class Invocation:
    """One `python -m oscmap ...` call and what its output is checked against."""

    workload: str
    scheme: str
    argv: tuple[str, ...]
    units: int
    params: tuple[tuple[str, object], ...] = ()

    def param(self, key: str):
        return dict(self.params)[key]


def _num(v: float) -> str:
    return f"{v:.6f}"


def _analyze(rng: random.Random) -> list[Invocation]:
    return [Invocation("analyze", s, ("analyze", s, "--format", "json"), 1)
            for s in REGISTRY]


def _sweep(rng: random.Random) -> list[Invocation]:
    out = []
    for s in ("SV", "FR", "C", "BM"):
        for quantity in ("omega_a", "det"):
            lo = _num(rng.uniform(0.01, 0.1))
            hi = _num(rng.uniform(0.6, 0.95) * X_MAX[s])
            argv = ("sweep", s, "--min", lo, "--max", hi,
                    "--points", str(SWEEP_POINTS), "--quantity", quantity)
            out.append(Invocation("sweep", s, argv, SWEEP_POINTS, (
                ("min", float(lo)), ("max", float(hi)), ("points", SWEEP_POINTS),
                ("quantity", quantity), ("row_seed", rng.randrange(2**32)))))
    return out


def _simulate(rng: random.Random) -> list[Invocation]:
    out = []
    for s in ("FR", "C", "BM"):
        # inside the stable window: the workload times iteration, not blow-up
        x = _num(rng.uniform(0.15, 0.6) * X_MAX[s])
        q0 = _num(rng.choice((-1, 1)) * rng.uniform(0.5, 1.5))
        p0 = _num(rng.uniform(-1.0, 1.0))
        argv = ("simulate", s, "--x", x, "--q0", q0, "--p0", p0,
                "--steps", str(SIM_STEPS), "--stride", str(SIM_STRIDE),
                "--format", "json")
        out.append(Invocation("simulate", s, argv, SIM_STEPS, (
            ("x", float(x)), ("q0", float(q0)), ("p0", float(p0)),
            ("steps", SIM_STEPS), ("stride", SIM_STRIDE))))
    return out


def _series(rng: random.Random) -> list[Invocation]:
    out = []
    for s in ("SV", "FR", "C", "BM"):
        x = _num(rng.uniform(0.2, 0.5) * SERIES_RADIUS[s])
        argv = ("convergence", s, "--x", x, "-K", str(SERIES_K),
                "--format", "json")
        out.append(Invocation("series", s, argv, SERIES_K + 1,
                              (("x", float(x)), ("K", SERIES_K))))
    return out


BUILDERS = {"analyze": _analyze, "sweep": _sweep, "simulate": _simulate,
            "series": _series}


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def build(workload: str, seed: int) -> tuple[list[Invocation], random.Random]:
    """The round's invocations and the generator that orders each round."""
    if workload not in BUILDERS:
        raise KeyError(f"unknown workload {workload!r}; "
                       f"choose from {', '.join(BUILDERS)}")
    rng = rng_for(workload, seed)
    return BUILDERS[workload](rng), rng


def shuffled(invocations: list[Invocation], rng: random.Random) -> list[Invocation]:
    order = list(invocations)
    rng.shuffle(order)
    return order

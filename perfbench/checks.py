"""Strict output checks, one per workload.

Each check parses the whole stdout of one invocation and raises CheckError on
anything unexpected; it returns the number of data records it read. The
tolerances are loose enough that an exact-root stability limit or a
polynomial-map rewrite of the program still passes, and tight enough that a
1e-3 error in x_max or a 1e-9 error in det does not.
"""

from __future__ import annotations

import json
import math
import random

from reference import ORDER, half_trace, omega_a
from workloads import Invocation

#: x_max values known in closed form.
EXACT_X_MAX = {"SV": 2.0, "LF1": 2.0, "LF1T": 2.0, "C": math.sqrt(8.0)}
X_MAX_TOL = 1e-8
#: The shear product is probed this far below and above the reported x_max.
X_MAX_PROBE = 1e-6
DET_TOL = 1e-12
OMEGA_REL_TOL = 1e-9
CLOSED_FORM_ERROR_MAX = 1e-7
SERIES_TOL = 1e-9
#: Sweep rows per invocation compared against the shear product.
SWEEP_SAMPLED_ROWS = 64
REGIMES = ("elliptic", "parabolic", "hyperbolic")


class CheckError(ValueError):
    """An invocation's output is malformed or disagrees with the reference."""


def _reject_constant(token: str):
    raise CheckError(f"non-finite JSON token {token}")


def parse_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"unparsable JSON: {exc}") from exc


def _finite(v, what: str) -> float:
    if isinstance(v, str):
        try:
            v = float(v)
        except ValueError as exc:
            raise CheckError(f"{what}: {v!r} is not a number") from exc
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise CheckError(f"{what}: {v!r} is not a finite number")
    return float(v)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def check_analyze(inv: Invocation, text: str) -> int:
    obj = parse_json(text)
    s = inv.scheme
    _expect(isinstance(obj, dict) and obj.get("scheme") == s,
            f"analyze {s}: wrong or missing scheme name")
    _expect(obj.get("declared_order") == ORDER[s],
            f"analyze {s}: declared_order {obj.get('declared_order')!r}")
    if obj.get("reversible"):
        _expect(obj.get("n") == ORDER[s], f"analyze {s}: n = {obj.get('n')!r}, "
                f"declared order {ORDER[s]}")
        c_n = _finite(obj.get("c_n"), f"analyze {s} c_n")
        if s == "SV":
            _expect(abs(c_n - 1 / 24) <= 1e-12, f"analyze SV: c_2 = {c_n!r}")
    stability = obj.get("stability")
    _expect(isinstance(stability, dict) and stability.get("bounded") is True,
            f"analyze {s}: stability not bounded")
    x_max = _finite(stability.get("x_max"), f"analyze {s} x_max")
    if s in EXACT_X_MAX:
        _expect(abs(x_max - EXACT_X_MAX[s]) <= X_MAX_TOL,
                f"analyze {s}: x_max = {x_max!r}, expected {EXACT_X_MAX[s]!r}")
    below = abs(half_trace(s, x_max - X_MAX_PROBE))
    above = abs(half_trace(s, x_max + X_MAX_PROBE))
    _expect(below < 1.0 <= above,
            f"analyze {s}: x_max = {x_max!r} is not where the shear product "
            f"leaves |half-trace| < 1 ({below!r}, {above!r})")
    return 1


def check_sweep(inv: Invocation, text: str) -> int:
    s, quantity, points = inv.scheme, inv.param("quantity"), inv.param("points")
    lines = text.split("\n")
    _expect(lines[-1] == "", f"sweep {s}: output does not end in a newline")
    _expect(lines[0] == "x,value,regime", f"sweep {s}: header {lines[0]!r}")
    body = lines[1:-1]
    _expect(len(body) == points, f"sweep {s}: {len(body)} rows, expected {points}")
    xs, values, regimes = [], [], []
    for k, line in enumerate(body):
        cells = line.split(",")
        _expect(len(cells) == 3, f"sweep {s}: row {k} has {len(cells)} cells")
        x_cell, value_cell, regime = cells
        _expect(regime in REGIMES, f"sweep {s}: row {k} regime {regime!r}")
        xs.append(_finite(x_cell, f"sweep {s} row {k} x"))
        if value_cell == "":
            _expect(quantity != "det" and regime != "elliptic",
                    f"sweep {s}: row {k} has no value")
            values.append(None)
        else:
            values.append(_finite(value_cell, f"sweep {s} row {k} value"))
        regimes.append(regime)
    _expect(math.isclose(xs[0], inv.param("min"), rel_tol=1e-11)
            and math.isclose(xs[-1], inv.param("max"), rel_tol=1e-11),
            f"sweep {s}: grid ends {xs[0]!r}, {xs[-1]!r}")
    if quantity == "det":
        worst = max(abs(v - 1.0) for v in values)
        _expect(worst <= DET_TOL, f"sweep {s}: |det - 1| reaches {worst!r}")
    rng = random.Random(inv.param("row_seed"))
    for k in rng.sample(range(points), min(SWEEP_SAMPLED_ROWS, points)):
        ht = half_trace(s, xs[k])
        if abs(ht) < 1.0 - 1e-9:
            _expect(regimes[k] == "elliptic",
                    f"sweep {s}: row {k} is {regimes[k]}, shear product elliptic")
            if quantity == "omega_a":
                ref = omega_a(s, xs[k])
                _expect(math.isclose(values[k], ref, rel_tol=OMEGA_REL_TOL),
                        f"sweep {s}: omega_a({xs[k]!r}) = {values[k]!r}, "
                        f"shear product gives {ref!r}")
        elif abs(ht) > 1.0 + 1e-9:
            _expect(regimes[k] == "hyperbolic",
                    f"sweep {s}: row {k} is {regimes[k]}, shear product hyperbolic")
    return points


def check_simulate(inv: Invocation, text: str) -> int:
    s = inv.scheme
    rows = parse_json(text)
    steps, stride = inv.param("steps"), inv.param("stride")
    expected = steps // stride + 1 + (1 if steps % stride else 0)
    _expect(isinstance(rows, list) and len(rows) == expected,
            f"simulate {s}: expected {expected} rows")
    for k, row in enumerate(rows):
        _expect(isinstance(row, dict), f"simulate {s}: row {k} is not an object")
        for key in ("t", "q", "p", "H"):
            _finite(row.get(key), f"simulate {s} row {k} {key}")
        err = _finite(row.get("closed_form_error"),
                      f"simulate {s} row {k} closed_form_error")
        _expect(err <= CLOSED_FORM_ERROR_MAX,
                f"simulate {s}: row {k} closed_form_error = {err!r}")
    first, last = rows[0], rows[-1]
    _expect(first["q"] == inv.param("q0") and first["p"] == inv.param("p0"),
            f"simulate {s}: first row is not the initial condition")
    _expect(math.isclose(last["t"], steps * inv.param("x"), rel_tol=1e-9),
            f"simulate {s}: final t = {last['t']!r}")
    return len(rows)


def check_series(inv: Invocation, text: str) -> int:
    s, x, order = inv.scheme, inv.param("x"), inv.param("K")
    obj = parse_json(text)
    _expect(isinstance(obj, dict) and obj.get("scheme") == s,
            f"convergence {s}: wrong or missing scheme name")
    rows = obj.get("rows")
    _expect(isinstance(rows, list) and len(rows) == order + 1,
            f"convergence {s}: expected {order + 1} rows")
    closed = _finite(obj.get("closed_form"), f"convergence {s} closed_form")
    ref = omega_a(s, x)
    _expect(abs(closed - ref) <= SERIES_TOL,
            f"convergence {s}: closed_form = {closed!r}, shear product {ref!r}")
    for k, row in enumerate(rows):
        _expect(isinstance(row, dict) and row.get("k") == k,
                f"convergence {s}: row {k} malformed")
        _finite(row.get("partial_sum"), f"convergence {s} row {k} partial_sum")
    last = rows[-1]["partial_sum"]
    _expect(abs(last - closed) <= SERIES_TOL,
            f"convergence {s}: partial sum {last!r} misses closed form {closed!r}")
    return len(rows)


CHECKS = {"analyze": check_analyze, "sweep": check_sweep,
          "simulate": check_simulate, "series": check_series}


def check(inv: Invocation, text: str) -> int:
    """Run the invocation's workload check; returns the records read."""
    return CHECKS[inv.workload](inv, text)

"""Command-line frontend: benchmark tables and trajectories as CSV or JSON.

Every subcommand is deterministic (no timestamps, fixed 12-significant-digit
formatting), so outputs are byte-stable and suitable for golden-file
comparisons. Errors go to stderr and flip the exit code; data never does.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from collections.abc import Iterable, Sequence

import numpy as np

from . import analysis, sim
from .phasemap import Regime, propagate_closed_form, scheme_matrix, spectral
from .schemes import (
    SchemeError, SchemeFileError, get_scheme, is_symmetric, load_scheme,
    registry_names,
)

__all__ = ["main"]

_SWEEP_QUANTITIES = ("omega_a", "phase_error", "det", "trace", "m_star", "k_star")


def _fmt(v) -> str:
    """Fixed 12-significant-digit decimal rendering for CSV cells."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return ""
    return f"{float(v):.12g}"


def _jnum(v):
    """JSON value rounded to the same 12 significant digits as the CSV.

    NaN and infinities become null: strict JSON has no literal for them.
    """
    if v is None or isinstance(v, (bool, int, str)):
        return v
    v = float(v)
    return float(f"{v:.12g}") if math.isfinite(v) else None


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemeError(f"cannot write output file {path}: {exc}") from exc


def _emit_csv(header: list[str], rows: Iterable[Sequence],
              path: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell if isinstance(cell, str) else _fmt(cell)
                         for cell in row])
    _write(buf.getvalue(), path)


def _emit_json(obj, path: str | None) -> None:
    _write(json.dumps(obj, indent=2, allow_nan=False) + "\n", path)


def _resolve_scheme(args):
    if getattr(args, "file", None):
        return load_scheme(args.file)
    if getattr(args, "scheme", None):
        return get_scheme(args.scheme)
    raise SchemeError("give a registry scheme name or --file <scheme.json>")


# ------------------------------------------------------------------ schemes

def cmd_schemes(args) -> int:
    rows = []
    for name in registry_names():
        try:
            s = get_scheme(name)
            rows.append({
                "name": s.name, "order": s.order,
                "force_evals": s.force_evals, "steps": len(s.steps),
                "symmetric": is_symmetric(s), "status": "ok",
            })
        except SchemeFileError as exc:
            rows.append({
                "name": name, "order": None, "force_evals": None,
                "steps": None, "symmetric": None,
                "status": f"coefficients unavailable: {exc}",
            })
    if args.format == "json":
        _emit_json([{k: _jnum(v) for k, v in r.items()} for r in rows],
                   args.output)
    else:
        header = ["name", "order", "force_evals", "steps", "symmetric", "status"]
        _emit_csv(header, [[r[k] for k in header] for r in rows], args.output)
    return 0


# ------------------------------------------------------------------ analyze

def _series_rows(name: str, series) -> list[list]:
    return [[name, str(k), _fmt(float(c))] for k, c in enumerate(series.coeffs)]


def cmd_analyze(args) -> int:
    s = _resolve_scheme(args)
    if not is_symmetric(s):
        return _analyze_nonreversible(s, args)
    rep = analysis.analyze(s, args.order)
    if args.format == "json":
        obj = {
            "scheme": rep.scheme,
            "reversible": True,
            "declared_order": rep.order_declared,
            "n": rep.n,
            "c_n": _jnum(rep.c_n),
            "c_star": _jnum(rep.c_star),
            "stability": {"x_max": _jnum(rep.stability.x_max),
                          "bounded": rep.stability.bounded},
            "series": {
                "omega_a": [_jnum(float(c)) for c in rep.omega_a.coeffs],
                "inv_mass": [_jnum(float(c)) for c in rep.inv_mass.coeffs],
                "k_star": [_jnum(float(c)) for c in rep.k_star.coeffs],
            },
        }
        _emit_json(obj, args.output)
        return 0
    rows = [
        ["scheme", "", rep.scheme],
        ["reversible", "", "true"],
        ["declared_order", "", _fmt(rep.order_declared)],
        ["n", "", _fmt(rep.n)],
        ["c_n", "", _fmt(rep.c_n)],
        ["c_star", "", _fmt(rep.c_star)],
        ["stability_x_max", "", _fmt(rep.stability.x_max)],
        ["stability_bounded", "", _fmt(rep.stability.bounded)],
    ]
    rows += _series_rows("omega_a", rep.omega_a)
    rows += _series_rows("inv_mass", rep.inv_mass)
    rows += _series_rows("k_star", rep.k_star)
    _emit_csv(["field", "key", "value"], rows, args.output)
    return 0


def _analyze_nonreversible(s, args) -> int:
    note = ("series extraction needs a time-reversible (palindromic) scheme; "
            "reporting closed-form translation diagnostics instead")
    lim = analysis.stability_limit(s)
    sigma = {}
    for x in (0.1, 0.3, 0.5):
        m = scheme_matrix(s, x, 1.0)
        d = spectral(m)
        if d.regime is Regime.ELLIPTIC:
            sigma[x] = (m.g - m.h) / (2.0 * d.xi)
        else:
            sigma[x] = None
    if args.format == "json":
        obj = {
            "scheme": s.name,
            "reversible": False,
            "declared_order": s.order,
            "note": note,
            "stability": {"x_max": _jnum(lim.x_max), "bounded": lim.bounded},
            "sigma_amplitude": {_fmt(x): _jnum(v) for x, v in sigma.items()},
        }
        _emit_json(obj, args.output)
        return 0
    rows = [
        ["scheme", "", s.name],
        ["reversible", "", "false"],
        ["declared_order", "", _fmt(s.order)],
        ["note", "", note],
        ["stability_x_max", "", _fmt(lim.x_max)],
        ["stability_bounded", "", _fmt(lim.bounded)],
    ]
    rows += [["sigma_amplitude", _fmt(x), _fmt(v)] for x, v in sigma.items()]
    _emit_csv(["field", "key", "value"], rows, args.output)
    return 0


# -------------------------------------------------------------------- sweep

def cmd_sweep(args) -> int:
    if not 0.0 < args.min < args.max < math.inf:
        raise SchemeError("sweep needs finite --min and --max with "
                          "0 < --min < --max")
    if args.points < 2:
        raise SchemeError("sweep needs at least 2 points")
    s = _resolve_scheme(args)
    xs = np.linspace(args.min, args.max, args.points)
    m = scheme_matrix(s, xs, 1.0)
    d = spectral(m)
    if args.quantity in ("det", "trace"):
        values = getattr(m, args.quantity)().tolist()
    else:
        if args.quantity == "phase_error":
            values = 2.0 * math.pi * (d.omega_a - 1.0)
        else:
            values = getattr(d, args.quantity)
        # NaN marks exactly the points where a rotation quantity is undefined
        values = [None if math.isnan(v) else v for v in values.tolist()]
    rows = zip(xs.tolist(), values, (r.value for r in d.regime))
    if args.format == "json":
        _emit_json([
            {"x": _jnum(x), "value": _jnum(v), "regime": regime}
            for x, v, regime in rows
        ], args.output)
    else:
        _emit_csv(["x", "value", "regime"], rows, args.output)
    return 0


# ----------------------------------------------------------------- simulate

def cmd_simulate(args) -> int:
    if args.x == 0.0 or not math.isfinite(args.x):
        raise SchemeError("simulate needs a finite, nonzero --x")
    s = _resolve_scheme(args)
    eps, omega = args.x, 1.0
    # a hyperbolic map diverges to inf and NaN: legitimate output
    with np.errstate(over="ignore", invalid="ignore"):
        rec = sim.iterate(s, args.q0, args.p0, eps, omega, args.steps,
                          args.stride)
    m = scheme_matrix(s, eps, omega)
    d = spectral(m)
    elliptic = d.regime is Regime.ELLIPTIC
    start = np.array([args.q0, args.p0])
    rows = []
    for i, n in enumerate(rec.step_index):
        # + 0.0 turns the -0.0 of step 0 at a negative timestep into 0
        row = {"t": rec.t[i] + 0.0, "q": rec.q[i], "p": rec.p[i],
               "H": rec.energy[i]}
        if elliptic:
            if rec.modified_energy is not None:
                row["H_A"] = rec.modified_energy[i]
            else:
                angle = d.theta * rec.t[i] / eps
                row["sigma"] = (m.g - m.h) / (2.0 * d.xi) * math.sin(angle)
            ref = propagate_closed_form(m, float(rec.t[i])) @ start
            row["closed_form_error"] = max(abs(rec.q[i] - ref[0]),
                                           abs(rec.p[i] - ref[1]))
        rows.append(row)
    if elliptic:
        mid = "H_A" if rec.modified_energy is not None else "sigma"
        header = ["t", "q", "p", "H", mid, "closed_form_error"]
    else:
        header = ["t", "q", "p", "H"]
    if args.format == "json":
        _emit_json([{k: _jnum(r[k]) for k in header} for r in rows],
                   args.output)
    else:
        _emit_csv(header, [[r[k] for k in header] for r in rows], args.output)
    return 0


# ---------------------------------------------------------------- stability

def cmd_stability(args) -> int:
    s = _resolve_scheme(args)
    lim = analysis.stability_limit(s)
    if args.format == "json":
        _emit_json({"scheme": s.name, "x_max": _jnum(lim.x_max),
                    "bounded": lim.bounded}, args.output)
    else:
        _emit_csv(["scheme", "x_max", "bounded"],
                  [[s.name, lim.x_max, lim.bounded]], args.output)
    return 0


# -------------------------------------------------------------- convergence

def cmd_convergence(args) -> int:
    s = _resolve_scheme(args)
    study = analysis.convergence_study(s, args.x, args.order)
    if args.format == "json":
        obj = {
            "scheme": study.scheme,
            "x": _jnum(study.x),
            "closed_form": _jnum(study.closed_form),
            "radius_estimate": _jnum(study.radius_estimate),
            "rows": [
                {"k": r.order, "partial_sum": _jnum(r.partial_sum),
                 "abs_error": _jnum(r.abs_error)}
                for r in study.rows
            ],
        }
        _emit_json(obj, args.output)
        return 0
    rows = [[str(r.order), _fmt(r.partial_sum), _fmt(r.abs_error)]
            for r in study.rows]
    rows.append(["radius_estimate", _fmt(study.radius_estimate), ""])
    _emit_csv(["k", "partial_sum", "abs_error"], rows, args.output)
    return 0


# --------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscmap",
        description="Exact phase-space analysis of splitting integrators "
                    "on the harmonic oscillator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    common.add_argument("-o", "--output", metavar="PATH",
                        help="write output to PATH instead of stdout")

    withscheme = argparse.ArgumentParser(add_help=False)
    withscheme.add_argument("scheme", nargs="?",
                            help="registry scheme name (see 'oscmap schemes')")
    withscheme.add_argument("--file", metavar="PATH",
                            help="load the scheme from a JSON coefficient file")

    p = sub.add_parser("schemes", parents=[common],
                       help="list the scheme registry")
    p.set_defaults(func=cmd_schemes)

    p = sub.add_parser("analyze", parents=[common, withscheme],
                       help="phase-error report: order coefficient, cost-"
                            "normalized coefficient, stability, series")
    p.add_argument("-K", dest="order", type=int, default=10,
                   help="series truncation order (default 10)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", parents=[common, withscheme],
                       help="tabulate a quantity over a grid of x = eps*omega")
    p.add_argument("--min", type=float, required=True)
    p.add_argument("--max", type=float, required=True)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--quantity", choices=_SWEEP_QUANTITIES, default="omega_a")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", parents=[common, withscheme],
                       help="iterate a trajectory and compare with the "
                            "closed-form evolution")
    p.add_argument("--q0", type=float, default=1.0)
    p.add_argument("--p0", type=float, default=0.0)
    p.add_argument("--x", type=float, required=True,
                   help="step size eps (omega = 1, so x = eps*omega)")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--stride", type=int, default=1,
                   help="sampling stride (default 1)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stability", parents=[common, withscheme],
                       help="largest stable x = eps*omega")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("convergence", parents=[common, withscheme],
                       help="partial sums of the frequency series against "
                            "the closed form")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("-K", dest="order", type=int, default=20,
                   help="series truncation order (default 20)")
    p.set_defaults(func=cmd_convergence)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemeError, analysis.AnalysisError, ValueError) as exc:
        print(f"oscmap: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

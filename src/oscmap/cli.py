"""Command-line frontend: benchmark tables and trajectories as CSV or JSON.

Each subcommand builds its table once from raw values: a header, rows and,
where the JSON shape is not one record per row, a document made from the
same report objects. `_emit` renders it. CSV writes the header and rows with
every number at 12 significant digits; JSON writes the document, or the rows
as records, with every number rounded to the same digits and NaN and
infinities as null. Outputs are deterministic (no timestamps), so byte-stable
and suitable for golden-file comparisons. Errors go to stderr and flip the
exit code; data never does.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from collections.abc import Iterable, Sequence

from . import analysis, sim
from .phasemap import (
    SWEEP_QUANTITIES, Regime, _angle, propagate_closed_form, scheme_matrix,
    spectral, sweep,
)
from .schemes import (
    SchemeError, get_scheme, is_symmetric, load_scheme,
    registry_names,
)

__all__ = ["main"]

#: Cell types of a column that `_csv_column` writes with one format spec.
_FLOAT_COLUMN = {float, type(None)}


def _fmt(v) -> str:
    """Fixed 12-significant-digit decimal rendering for one CSV cell."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if v is None:
        return ""
    return f"{float(v):.12g}"


def _csv_column(cells: tuple) -> list[str]:
    """The CSV cells of one column: strings as they are, numbers by `_fmt`.

    A column of floats and gaps (None) takes one format spec for all its
    numbers, which gives `_fmt`'s bytes without its per-cell type tests.
    """
    if set(map(type, cells)) <= _FLOAT_COLUMN:
        return ["" if v is None else format(v, ".12g") for v in cells]
    return [v if isinstance(v, str) else _fmt(v) for v in cells]


def _jnum(v):
    """JSON value rounded to the same 12 significant digits as the CSV.

    NaN and infinities become null: strict JSON has no literal for them.
    """
    if v is None or isinstance(v, (bool, int, str)):
        return v
    v = float(v)
    return float(f"{v:.12g}") if math.isfinite(v) else None


def _jsonable(obj):
    """obj with _jnum applied to every value inside its dicts and lists."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_jsonable(v) for v in obj]
    return _jnum(obj)


def _emit(args, header: list[str], rows: Iterable[Sequence], doc=None) -> None:
    """Render one table in args.format to args.output or stdout."""
    if args.format == "json":
        if doc is None:
            doc = [dict(zip(header, row)) for row in rows]
        text = json.dumps(_jsonable(doc), indent=2, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*map(_csv_column, zip(*rows, strict=True))))
        text = buf.getvalue()
    if args.output is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemeError(
            f"cannot write output file {args.output}: {exc}") from exc


def _resolve_scheme(args):
    if getattr(args, "file", None):
        return load_scheme(args.file)
    if getattr(args, "scheme", None):
        return get_scheme(args.scheme)
    raise SchemeError("give a registry scheme name or --file <scheme.json>")


def _check_x(args) -> None:
    if args.x == 0.0 or not math.isfinite(args.x):
        raise SchemeError(f"{args.command} needs a finite, nonzero --x")


# ------------------------------------------------------------------ schemes

def cmd_schemes(args) -> int:
    rows = []
    for name in registry_names():
        try:
            s = get_scheme(name)
            rows.append([s.name, s.order, s.force_evals, len(s.steps),
                         is_symmetric(s), "ok"])
        except SchemeError as exc:  # a bad data file, or its map overflows
            rows.append([name, None, None, None, None,
                         f"coefficients unavailable: {exc}"])
    _emit(args, ["name", "order", "force_evals", "steps", "symmetric",
                 "status"], rows)
    return 0


# ------------------------------------------------------------------ analyze

def _check_order(args) -> None:
    if args.order < 0:
        raise SchemeError(f"{args.command} needs -K of at least 0")


def cmd_analyze(args) -> int:
    _check_order(args)
    s = _resolve_scheme(args)
    rep = analysis.analyze(s, args.order)
    head = {"scheme": rep.scheme, "reversible": is_symmetric(s),
            "declared_order": rep.order_declared, "n": rep.n,
            "c_n": rep.c_n, "c_star": rep.c_star}
    lim = rep.stability._asdict()
    series = {name: getattr(rep, name)._floats()
              for name in ("omega_a", "inv_mass", "k_star", "sigma")}
    rows = [[k, "", v] for k, v in head.items()]
    rows += [[f"stability_{k}", "", v] for k, v in lim.items()]
    rows += [[name, k, c] for name, cs in series.items() for k, c in enumerate(cs)]
    _emit(args, ["field", "key", "value"], rows,
          {**head, "stability": lim, "series": series})
    return 0


# -------------------------------------------------------------------- sweep

def _sweep_grid(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced points from lo to hi, both included.

    The formula of np.linspace, so the points are its values bit for bit:
    i*step + lo with step = (hi - lo)/(n - 1), the last point set to hi, and
    (i/(n - 1))*(hi - lo) + lo where the step underflows to 0.
    """
    step = (hi - lo) / (n - 1)
    if step == 0.0:
        xs = [i / (n - 1) * (hi - lo) + lo for i in range(n)]
    else:
        xs = [i * step + lo for i in range(n)]
    xs[-1] = hi
    return xs


def cmd_sweep(args) -> int:
    if not 0.0 < args.min < args.max < math.inf:
        raise SchemeError("sweep needs finite --min and --max with "
                          "0 < --min < --max")
    if args.points < 2:
        raise SchemeError("sweep needs at least 2 points")
    s = _resolve_scheme(args)
    # Regime is a str subclass: csv and json write a member as its value
    _emit(args, ["x", "value", "regime"],
          sweep(s, _sweep_grid(args.min, args.max, args.points), args.quantity))
    return 0


# ----------------------------------------------------------------- simulate

def cmd_simulate(args) -> int:
    _check_x(args)
    for flag, value in (("--q0", args.q0), ("--p0", args.p0)):
        if not math.isfinite(value):
            raise SchemeError(f"simulate needs a finite {flag}")
    for flag, value in (("--steps", args.steps), ("--stride", args.stride)):
        if value < 1:
            raise SchemeError(f"simulate needs {flag} of at least 1")
    s = _resolve_scheme(args)
    eps, omega, q0, p0 = args.x, 1.0, args.q0, args.p0
    # a hyperbolic map diverges to inf and NaN: legitimate output
    rec = sim.iterate(s, q0, p0, eps, omega, args.steps, args.stride)
    m = scheme_matrix(s, eps, omega)
    d = spectral(m)
    elliptic = d.regime is Regime.ELLIPTIC
    header = ["t", "q", "p", "H"]
    if elliptic:
        mid = "H_A" if rec.modified_energy is not None else "sigma"
        header += [mid, "closed_form_error"]
    rows = []
    for i, t in enumerate(rec.t):
        q, p = rec.q[i], rec.p[i]
        # + 0.0 turns the -0.0 of step 0 at a negative timestep into 0
        row = [t + 0.0, q, p, rec.energy[i]]
        if elliptic:
            if rec.modified_energy is not None:
                row.append(rec.modified_energy[i])
            else:
                angle = _angle(d.theta, t, eps)
                row.append((m.g - m.h) / (2.0 * d.xi) * math.sin(angle))
            (a, b), (c, e) = propagate_closed_form(m, t)
            row.append(max(abs(q - (a * q0 + b * p0)),
                           abs(p - (c * q0 + e * p0))))
        rows.append(row)
    _emit(args, header, rows)
    return 0


# ---------------------------------------------------------------- stability

def cmd_stability(args) -> int:
    s = _resolve_scheme(args)
    lim = analysis.stability_limit(s)
    header = ["scheme", "x_max", "bounded"]
    row = [s.name, lim.x_max, lim.bounded]
    _emit(args, header, [row], dict(zip(header, row)))
    return 0


# -------------------------------------------------------------- convergence

def cmd_convergence(args) -> int:
    _check_x(args)
    _check_order(args)
    s = _resolve_scheme(args)
    study = analysis.convergence_study(s, args.x, args.order)
    header = ["k", "partial_sum", "abs_error"]
    rows = [[r.order, r.partial_sum, r.abs_error] for r in study.rows]
    doc = {"scheme": study.scheme, "x": study.x,
           "closed_form": study.closed_form,
           "radius_estimate": study.radius_estimate,
           "rows": [dict(zip(header, row)) for row in rows]}
    _emit(args, header, [*rows, ["radius_estimate", study.radius_estimate, ""]],
          doc)
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
    p.add_argument("--quantity", choices=SWEEP_QUANTITIES, default="omega_a")
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


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argv with each `--flag <negative number>` joined as `--flag=<number>`.

    argparse reads a token that starts with '-' as an option unless it looks
    like -1 or -.5, so `--x -1e-3` and `--x -inf` would leave --x without a
    value.
    """
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if (token.startswith("-") and _is_number(token)
                and prev.startswith("--") and prev != "--" and "=" not in prev):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (SchemeError, analysis.AnalysisError, ValueError) as exc:
        print(f"oscmap: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

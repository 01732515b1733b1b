"""Command-line frontend: benchmark tables and trajectories as CSV or JSON.

Each subcommand builds its table once from raw values: a header, rows and,
where the JSON shape is not one record per row, a document made from the
same report objects. `_emit` renders it. CSV writes the header and rows with
every number at 12 significant digits; JSON writes the document, or the rows
as records, with every number rounded to the same digits and NaN and
infinities as null. Outputs are deterministic (no timestamps), so byte-stable
and suitable for golden-file comparisons. Errors go to stderr and flip the
exit code; data never does.

CSV cells are quoted by one fixed rule, csv.QUOTE_MINIMAL as Python 3.13
applies it: a cell holding a comma, a double quote, CR or LF is wrapped in
double quotes with its quotes doubled, so the bytes do not depend on the
Python version. A command imports only the modules it runs: `analysis`,
`sim` and `json` load inside the commands and the writer that need them.

The command line is `oscmap COMMAND [SCHEME] [options]`, read from one table,
`_COMMANDS`, that also prints the help (`-h` or `--help`). A flag takes its
value as `--flag value` or `--flag=value`, and the token after a flag is
always its value, so `--x -1e-3` and `--p0 -inf` need no `=`. Flags are
spelled out in full (`--form` is not `--format`), and a repeated flag keeps
its last value. The first bare token is the scheme. Any error on the command
line, as in a value, prints one `oscmap: error:` line and exits 1.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Sequence
from types import SimpleNamespace

from .phasemap import (
    SWEEP_QUANTITIES, Regime, _angle, propagate_closed_form, scheme_matrix,
    spectral, sweep,
)
from .schemes import (
    SchemeError, get_scheme, is_symmetric, load_scheme,
    registry_names,
)

__all__ = ["main"]

#: Cell types of a column that the writers render with one format spec.
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


def _needs_quotes(text: str) -> bool:
    return "," in text or '"' in text or "\n" in text or "\r" in text


def _quote(cell: str) -> str:
    """One CSV cell as csv.QUOTE_MINIMAL writes it on Python 3.13."""
    if _needs_quotes(cell):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv_column(cells: tuple) -> list[str]:
    """The CSV cells of one column: strings quoted, numbers by `_fmt`.

    A column of floats and gaps (None) takes one format spec for all its
    numbers, which gives `_fmt`'s bytes without its per-cell type tests;
    no number needs quotes, so a column is searched for them once.
    """
    if set(map(type, cells)) <= _FLOAT_COLUMN:
        return ["" if v is None else format(v, ".12g") for v in cells]
    out = [v if isinstance(v, str) else _fmt(v) for v in cells]
    return list(map(_quote, out)) if _needs_quotes("".join(out)) else out


def _csv(header: list[str], rows: Iterable[Sequence]) -> str:
    """The table as CSV lines, each ended by LF.

    A line of one empty cell is written `""`, as csv.writer does, so that it
    is not read as a blank line.
    """
    lines = [",".join(map(_quote, header)), *map(",".join, zip(
        *map(_csv_column, zip(*rows, strict=True))))]
    if len(header) == 1:
        lines = [line or '""' for line in lines]
    return "\n".join(lines) + "\n"


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


def _json_column(cells: tuple, encode_str) -> list[str]:
    """The JSON values of one column as json.dumps writes `_jnum(v)`.

    A float's 12-digit text ends in a digit unless it is nan or inf, which
    become null like None.
    """
    if set(map(type, cells)) <= _FLOAT_COLUMN:
        texts = ["nan" if v is None else format(v, ".12g") for v in cells]
        return [repr(float(c)) if c[-1].isdigit() else "null" for c in texts]
    out = []
    for v in map(_jnum, cells):
        if v is None:
            out.append("null")
        elif v is True or v is False:
            out.append("true" if v else "false")
        elif isinstance(v, str):
            out.append(encode_str(v))
        elif isinstance(v, int):
            out.append(int.__repr__(v))
        else:
            out.append(float.__repr__(v))
    return out


def _json_records(header: list[str], rows: Iterable[Sequence]) -> str:
    """The rows as a JSON array of records, in the bytes that json.dumps
    writes for `_jsonable([dict(zip(header, row)) for row in rows])` with
    indent=2.

    One %-template per table holds the escaped keys (header names are
    distinct), and each column is rendered in one pass.
    """
    from json.encoder import encode_basestring_ascii as encode_str
    cols = [_json_column(c, encode_str) for c in zip(*rows, strict=True)]
    if not cols:
        return "[]\n"
    fields = ",\n".join(f"    {encode_str(k).replace('%', '%%')}: %s"
                         for k in header)
    template = "  {\n" + fields + "\n  }"
    body = ",\n".join([template % row for row in zip(*cols)])
    return "[\n" + body + "\n]\n"


def _emit(args, header: list[str], rows: Iterable[Sequence], doc=None) -> None:
    """Render one table in args.format to args.output or stdout."""
    if args.format == "csv":
        text = _csv(header, rows)
    elif doc is None:
        text = _json_records(header, rows)
    else:
        import json
        text = json.dumps(_jsonable(doc), indent=2, allow_nan=False) + "\n"
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
    if args.file and args.scheme:
        raise SchemeError("give a registry scheme name or --file "
                          "<scheme.json>, not both")
    if args.file:
        return load_scheme(args.file)
    if args.scheme:
        return get_scheme(args.scheme)
    raise SchemeError("give a registry scheme name or --file <scheme.json>")


def _check_x(args) -> None:
    if args.x == 0.0 or not math.isfinite(args.x):
        raise SchemeError(f"{args.command} needs a finite, nonzero --x")


# ------------------------------------------------------------------ schemes

def cmd_schemes(args) -> int:
    """List the scheme registry."""
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
    """Phase-error report: c_n, c*, stability limit, series to order -K."""
    from . import analysis
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
    """Tabulate a quantity over x = eps*omega from --min to --max."""
    if not 0.0 < args.min < args.max < math.inf:
        raise SchemeError("sweep needs finite --min and --max with "
                          "0 < --min < --max")
    if args.points < 2:
        raise SchemeError("sweep needs at least 2 points")
    s = _resolve_scheme(args)
    # Regime is a str subclass: both writers write a member as its value
    _emit(args, ["x", "value", "regime"],
          sweep(s, _sweep_grid(args.min, args.max, args.points), args.quantity))
    return 0


# ----------------------------------------------------------------- simulate

def cmd_simulate(args) -> int:
    """Iterate a trajectory at x = eps (omega = 1) against the closed form."""
    from . import sim
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
    """Largest stable x = eps*omega."""
    from . import analysis
    s = _resolve_scheme(args)
    lim = analysis.stability_limit(s)
    header = ["scheme", "x_max", "bounded"]
    row = [s.name, lim.x_max, lim.bounded]
    _emit(args, header, [row], dict(zip(header, row)))
    return 0


# -------------------------------------------------------------- convergence

def cmd_convergence(args) -> int:
    """Partial sums of the frequency series against the closed form."""
    from . import analysis
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

#: An option is flag -> (attribute, type or tuple of choices, default),
#: where the default _REQUIRED makes it mandatory.
_REQUIRED = ...
_OUTPUT = {"--format": ("format", ("csv", "json"), "csv"),
           "-o": ("output", str, None), "--output": ("output", str, None)}
_SCHEME = {"--file": ("file", str, None), **_OUTPUT}

#: command -> (function, takes a scheme, options).
_COMMANDS = {
    "schemes": (cmd_schemes, False, _OUTPUT),
    "analyze": (cmd_analyze, True, {"-K": ("order", int, 10), **_SCHEME}),
    "sweep": (cmd_sweep, True, {
        "--min": ("min", float, _REQUIRED), "--max": ("max", float, _REQUIRED),
        "--points": ("points", int, 100),
        "--quantity": ("quantity", SWEEP_QUANTITIES, "omega_a"), **_SCHEME}),
    "simulate": (cmd_simulate, True, {
        "--q0": ("q0", float, 1.0), "--p0": ("p0", float, 0.0),
        "--x": ("x", float, _REQUIRED), "--steps": ("steps", int, _REQUIRED),
        "--stride": ("stride", int, 1), **_SCHEME}),
    "stability": (cmd_stability, True, _SCHEME),
    "convergence": (cmd_convergence, True, {
        "--x": ("x", float, _REQUIRED), "-K": ("order", int, 20), **_SCHEME}),
}

_HELP = ("usage: oscmap COMMAND [SCHEME] [--flag VALUE | --flag=VALUE ...]\n"
         "SCHEME is a registry name (see 'oscmap schemes') or --file PATH.\n")


def _metavar(kind) -> str:
    return ("{" + ",".join(kind) + "}" if isinstance(kind, tuple)
            else "PATH" if kind is str else kind.__name__.upper())


def _usage(command: str) -> str:
    """What a command does and its options, read from its table entry."""
    func, takes_scheme, options = _COMMANDS[command]
    lines = [f"oscmap {command}{' [SCHEME]' if takes_scheme else ''}",
             f"  {func.__doc__ or ''}"]
    for flag, (_, kind, default) in options.items():
        note = ("required" if default is _REQUIRED else
                "" if default is None else f"default {default}")
        lines.append(f"    {flag} {_metavar(kind)}  {note}".rstrip())
    return "\n".join(lines)


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The parsed command line, or None once help is printed."""
    if argv[:1] in (["-h"], ["--help"]):
        print(_HELP + "".join(f"\n{_usage(c)}\n" for c in _COMMANDS), end="")
        return None
    if not argv or argv[0] not in _COMMANDS:
        what = f"unknown command {argv[0]!r}" if argv else "no command"
        raise SchemeError(f"{what}; choose from {', '.join(_COMMANDS)}")
    command, *rest = argv
    func, takes_scheme, options = _COMMANDS[command]
    values = {dest: default for dest, _, default in options.values()}
    bare: list[str] = []
    tokens = iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            print("usage: " + _usage(command))
            return None
        if not token.startswith("-"):
            bare.append(token)
            continue
        flag, eq, text = token.partition("=")
        if flag not in options:
            raise SchemeError(f"{command} has no option {flag}")
        text = text if eq else next(tokens, None)
        if text is None:
            raise SchemeError(f"{flag} needs a value")
        dest, kind, _ = options[flag]
        try:  # tuple.index raises ValueError for a value not among choices
            values[dest] = (kind[kind.index(text)] if isinstance(kind, tuple)
                            else kind(text))
        except ValueError:
            raise SchemeError(
                f"{flag}: {text!r} is not {_metavar(kind)}") from None
    if len(bare) > takes_scheme:
        raise SchemeError(f"unexpected argument {bare[takes_scheme]!r}")
    for flag, (dest, _, _) in options.items():
        if values[dest] is _REQUIRED:
            raise SchemeError(f"{command} needs {flag}")
    return SimpleNamespace(command=command, func=func,
                           scheme=bare[0] if bare else None, **values)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        return 0 if args is None else args.func(args)
    except (SchemeError, ValueError) as exc:  # AnalysisError is a ValueError
        print(f"oscmap: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

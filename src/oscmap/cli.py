"""Command-line frontend: benchmark tables and trajectories as CSV or JSON.

Each subcommand builds its table once from raw values and returns it: a
header, rows and, where the JSON shape is not one record per row, a
document made from the same report objects. `main` renders it with
`_emit`, the one writer of every command. Each format has one rule for a
value: `_fmt` writes a CSV cell and `_json_value` a JSON value, every
number at 12 significant digits and, in JSON, NaN and infinities as null;
`_json` writes every JSON document in the indent=2 layout of json.dumps.
A table's cells lie row by row in one list, and one %-template, a row's
repeated once per row, writes every line; a row whose length differs from
the header's is refused. Column routes skip the `_fmt` or `_json_value`
call per value and write its bytes by a format spec, for speed: CSV
floats, with or without gaps, and text that needs no quotes (the `sweep`
workload), and JSON floats and gaps (the `simulate` workload). Outputs
are deterministic (no timestamps), so byte-stable and suitable for
golden-file comparisons. Errors go to stderr and flip the exit code; data
never does.

CSV cells are quoted by one fixed rule, csv.QUOTE_MINIMAL as Python 3.13
applies it: a cell holding a comma, a double quote, CR or LF is wrapped in
double quotes with its quotes doubled, so the bytes do not depend on the
Python version. A command imports only the modules it runs: `analysis`,
with the `series` ring, `sim` and `closedform` load inside the commands that
run them, `sweepkernel` inside `phasemap.sweep`, and `schemefile`, with
`json`, only for `--file`. The JSON writer escapes text with the `_json`
accelerator's function, so no output loads the `json` package.

The command line is `oscmap COMMAND [SCHEME] [options]`, read from one table,
`_COMMANDS`, that holds each option's type, admissible range and default
and also prints them as the help (`-h` or `--help`). A value is refused
where it does not parse or lies out of range, before any command runs; a
command checks only what ties two options together (`--min < --max`). A
flag takes its value as `--flag value` or `--flag=value`, and the token
after a flag is always its value, so `--x -1e-3` and `--p0 -inf` need no
`=`. Flags are spelled out in full (`--form` is not `--format`), and a
repeated flag keeps its last value. The first bare token is the scheme,
resolved once, with `--file`, while parsing. Any error on the command line,
as in a value, prints one `oscmap: error:` line and exits 1.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from itertools import chain
from types import SimpleNamespace

from .phasemap import SWEEP_QUANTITIES, Regime, scheme_matrix, spectral, sweep
from .schemes import (
    SchemeError, get_scheme, is_symmetric, load_scheme, registry,
)

__all__ = ["main"]


def _fmt(v) -> str:
    """One CSV cell: text by `_quote`, a float at 12 significant digits, a
    bool as true or false, an int in full and None as an empty cell."""
    if v.__class__ is float:
        return format(v, ".12g")
    if v is None:
        return ""
    if isinstance(v, str):
        return _quote(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return f"{float(v):.12g}"


def _needs_quotes(text: str) -> bool:
    return "," in text or '"' in text or "\n" in text or "\r" in text


def _quote(cell: str) -> str:
    """One CSV cell as csv.QUOTE_MINIMAL writes it on Python 3.13."""
    if _needs_quotes(cell):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _cells(header: list[str], rows: Sequence[Sequence]) -> list:
    """Every cell of the table in one list, row by row.

    A row whose length differs from the header's raises ValueError.
    """
    n = len(header)
    if not set(map(len, rows)) <= {n}:
        k, row = next((k, r) for k, r in enumerate(rows) if len(r) != n)
        raise ValueError(f"row {k} of the table has {len(row)} cells "
                         f"under a header of {n}")
    return list(chain.from_iterable(rows))


def _csv(header: list[str], rows: Sequence[Sequence]) -> str:
    """The table as CSV lines, each ended by LF, every cell by `_fmt`.

    The cells lie row by row in one list, and one %-template, the template
    of a row repeated once per row, writes them all. A column of floats
    keeps them under a `%.12g` field, and one of text that needs no quotes,
    as of Regime members, keeps it under a `%s` field, so `sweep`'s tables
    take no call per cell. A column of floats with gaps (None) is rendered
    in place by one format spec, and any other column by `_fmt`, under a
    `%s` field. A line of one empty cell is written `""`, as csv.writer
    does, so that it is not read as a blank line.
    """
    cells = _cells(header, rows)
    n = len(header)
    fields = []
    for i in range(n):
        column = cells[i::n]
        kinds = set(map(type, column))
        if kinds <= {float}:
            fields.append("%.12g")
            continue
        fields.append("%s")
        if (all(issubclass(k, str) for k in kinds)
                and not _needs_quotes("".join(column))
                and (n > 1 or all(column))):
            continue
        if kinds <= {float, type(None)}:  # floats with gaps, as in `sweep`
            column = ["" if v is None else format(v, ".12g") for v in column]
        else:
            column = list(map(_fmt, column))
        cells[i::n] = [c or '""' for c in column] if n == 1 else column
    head = ",".join(map(_quote, header))
    if n == 1 and not head:
        head = '""'
    return (head + "\n" + (",".join(fields) + "\n") * len(rows)
            % tuple(cells))


def _encode_str(text: str) -> str:
    """json.encoder.encode_basestring_ascii, which takes this function's
    place on the first call, so that CSV output loads nothing for it.

    It is CPython's `_json` accelerator, the function json.encoder
    re-exports, so JSON output does not load the `json` package either.
    """
    global _encode_str
    try:
        from _json import encode_basestring_ascii as _encode_str
    except ImportError:  # an interpreter without CPython's accelerator
        from json.encoder import encode_basestring_ascii as _encode_str
    return _encode_str(text)


def _json_value(v) -> str:
    """One JSON value: text escaped to ASCII, None, NaN and infinities as
    null (strict JSON has no literal for them), bools and ints as json
    writes them, and any other number rounded to the same 12 significant
    digits as the CSV."""
    if isinstance(v, str):
        return _encode_str(v)
    if v is None:
        return "null"
    if v is True or v is False:
        return "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    text = format(float(v), ".12g")
    return repr(float(text)) if text[-1].isdigit() else "null"


def _json(obj, indent: str = "\n") -> str:
    """obj as json.dumps writes it with indent=2, every value by
    `_json_value`: dicts with str keys and lists nest, anything else is a
    value."""
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [f"{_encode_str(k)}: {_json(v, inner)}"
                 for k, v in obj.items()]
        ends = "{}"
    elif isinstance(obj, list):
        items, ends = [_json(v, inner) for v in obj], "[]"
    else:
        return _json_value(obj)
    return (ends[0] + inner + ("," + inner).join(items) + indent + ends[1]
            if items else ends)


def _json_records(header: list[str], rows: Sequence[Sequence]) -> str:
    """The rows as a JSON array of records: the bytes of
    `_json([dict(zip(header, row)) for row in rows])` and a final LF.

    The cells lie row by row in one list, and each column is rendered in
    place by `_json_value`, or, where it holds only floats and gaps (None),
    as in `simulate`'s tables, by one format spec without a call per cell.
    One %-template, the record of one row with its escaped keys (header
    names are distinct) and a `%s` field per value, repeated once per row,
    writes them all.
    """
    cells = _cells(header, rows)
    if not rows:
        return "[]\n"
    n = len(header)
    for i in range(n):
        column = cells[i::n]
        if set(map(type, column)) <= {float, type(None)}:
            # a float's 12-digit text ends in a digit unless it is nan or inf
            texts = ["nan" if v is None else format(v, ".12g") for v in column]
            cells[i::n] = [repr(float(c)) if c[-1].isdigit() else "null"
                           for c in texts]
        else:
            cells[i::n] = list(map(_json_value, column))
    fields = ",\n".join(f"    {_encode_str(k).replace('%', '%%')}: %s"
                         for k in header)
    record = "  {\n" + fields + "\n  }"
    return "[\n" + ",\n".join([record] * len(rows)) % tuple(cells) + "\n]\n"


def _emit(args, header: list[str], rows: Sequence[Sequence], doc=None) -> None:
    """Render one table in args.format to args.output or stdout."""
    if args.format == "csv":
        text = _csv(header, rows)
    elif doc is None:
        text = _json_records(header, rows)
    else:
        text = _json(doc) + "\n"
    if args.output is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemeError(
            f"cannot write output file {args.output}: {exc}") from exc


def _resolve_scheme(name: str | None, path: str | None):
    if path and name:
        raise SchemeError("give a registry scheme name or --file "
                          "<scheme.json>, not both")
    if path:
        return load_scheme(path)
    if name:
        return get_scheme(name)
    raise SchemeError("give a registry scheme name or --file <scheme.json>")


# ------------------------------------------------------------------ schemes

def cmd_schemes(args):
    """List the scheme registry."""
    rows = [[s.name, s.order, s.force_evals, len(s.steps), is_symmetric(s)]
            for s in registry()]
    return ["name", "order", "force_evals", "steps", "symmetric"], rows


# ------------------------------------------------------------------ analyze

def cmd_analyze(args):
    """Phase-error report: c_n, c*, stability limit, series to order -K."""
    from . import analysis
    s = args.scheme
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
    doc = {**head, "stability": lim, "series": series}
    return ["field", "key", "value"], rows, doc


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


def cmd_sweep(args):
    """Tabulate a quantity over x = eps*omega from --min to --max."""
    if not args.min < args.max:
        raise SchemeError("sweep needs --min < --max")
    grid = _sweep_grid(args.min, args.max, args.points)
    # Regime is a str subclass: both writers write a member as its value
    return ["x", "value", "regime"], sweep(args.scheme, grid, args.quantity)


# ----------------------------------------------------------------- simulate

def cmd_simulate(args):
    """Iterate a trajectory at x = eps (omega = 1) with H_A and closed form."""
    from . import closedform, sim
    s = args.scheme
    eps, omega, q0, p0 = args.x, 1.0, args.q0, args.p0
    # iterate keeps each sample in five lists: step 0, each stride, the last
    samples = len(range(0, args.steps, args.stride)) + 1
    if samples > _MAX_ROWS:
        raise SchemeError(f"--steps {args.steps} at --stride {args.stride} "
                          f"samples {samples} rows, more than {_MAX_ROWS}")
    # a hyperbolic map diverges to inf and NaN: legitimate output
    rec = sim.iterate(s, q0, p0, eps, omega, args.steps, args.stride)
    # + 0.0 turns the -0.0 of step 0 at a negative timestep into 0
    rows = [[t + 0.0, q, p, h]
            for t, q, p, h in zip(rec.t, rec.q, rec.p, rec.energy)]
    m = scheme_matrix(s, eps, omega)
    d = spectral(m)
    if d.regime is not Regime.ELLIPTIC:
        return ["t", "q", "p", "H"], rows
    gen = closedform._generator(m)
    h_a = closedform._shadow_energy(gen, d, rec.q, rec.p)
    closed = closedform._propagate(m, d, gen, rec.t)
    for row, q, p, h, ((a, b), (c, e)) in zip(rows, rec.q, rec.p, h_a, closed):
        row += [h, max(abs(q - (a * q0 + b * p0)),
                       abs(p - (c * q0 + e * p0)))]
    return ["t", "q", "p", "H", "H_A", "closed_form_error"], rows


# ---------------------------------------------------------------- stability

def cmd_stability(args):
    """Largest stable x = eps*omega."""
    from . import analysis
    lim = analysis.stability_limit(args.scheme)
    header = ["scheme", "x_max", "bounded"]
    row = [args.scheme.name, lim.x_max, lim.bounded]
    return header, [row], dict(zip(header, row))


# -------------------------------------------------------------- convergence

def cmd_convergence(args):
    """Partial sums of the frequency series against the closed form."""
    from . import analysis
    study = analysis.convergence_study(args.scheme, args.x, args.order)
    header = ["k", "partial_sum", "abs_error"]
    rows = [[r.order, r.partial_sum, r.abs_error] for r in study.rows]
    doc = {"scheme": study.scheme, "x": study.x,
           "closed_form": study.closed_form,
           "radius_estimate": study.radius_estimate,
           "rows": [dict(zip(header, row)) for row in rows]}
    return header, [*rows, ["radius_estimate", study.radius_estimate, ""]], doc


# --------------------------------------------------------------------- main

#: What an option admits, its kind: (its name in the help and in errors,
#: the parser of its text, the test of the parsed value).
_PATH = ("PATH", str, bool)
_FINITE = ("FLOAT (finite)", float, math.isfinite)
_NONZERO = ("FLOAT (finite, nonzero)", float,
            lambda v: v != 0.0 and math.isfinite(v))
_POSITIVE = ("FLOAT (finite, > 0)", float, lambda v: 0.0 < v < math.inf)
_COUNT = ("INT (>= 1)", int, lambda v: v >= 1)
#: The cost of a series grows as K^2 (`convergence BM --x 0.5 -K 1000` takes
#: ~2 s), and a series cannot be sized past an index-sized int at all.
_ORDER = ("INT (0 to 10000)", int, range(10_001).__contains__)
#: The most rows of a sweep or a simulation; a grid of 10^22 is never built.
_MAX_ROWS = 10**6
_POINTS = ("INT (2 to 1000000)", int, range(2, _MAX_ROWS + 1).__contains__)
#: 10^6 BM steps take 0.32 to 0.48 s of CPU (Python 3.11, 2-vCPU Xeon host
#: under varying load), so 10^9 take 5 to 8 minutes; 10^20 never end.
_STEPS = ("INT (1 to 1000000000)", int, range(1, 10**9 + 1).__contains__)


def _choices(names: tuple[str, ...]) -> tuple:
    return "{" + ",".join(names) + "}", str, names.__contains__


#: An option is flag -> (attribute, kind, default), where the default
#: _REQUIRED makes it mandatory.
_REQUIRED = ...
_OUTPUT = {"--format": ("format", _choices(("csv", "json")), "csv"),
           "-o": ("output", _PATH, None), "--output": ("output", _PATH, None)}
_SCHEME = {"--file": ("file", _PATH, None), **_OUTPUT}

#: command -> (function, takes a scheme, options). A function takes the
#: parsed namespace, with the scheme resolved, and returns its table as
#: (header, rows) or (header, rows, JSON document) for `main` to render.
_COMMANDS = {
    "schemes": (cmd_schemes, False, _OUTPUT),
    "analyze": (cmd_analyze, True, {"-K": ("order", _ORDER, 10), **_SCHEME}),
    "sweep": (cmd_sweep, True, {
        "--min": ("min", _POSITIVE, _REQUIRED),
        "--max": ("max", _POSITIVE, _REQUIRED),
        "--points": ("points", _POINTS, 100),
        "--quantity": ("quantity", _choices(SWEEP_QUANTITIES), "omega_a"),
        **_SCHEME}),
    "simulate": (cmd_simulate, True, {
        "--q0": ("q0", _FINITE, 1.0), "--p0": ("p0", _FINITE, 0.0),
        "--x": ("x", _NONZERO, _REQUIRED),
        "--steps": ("steps", _STEPS, _REQUIRED),
        "--stride": ("stride", _COUNT, 1), **_SCHEME}),
    "stability": (cmd_stability, True, _SCHEME),
    "convergence": (cmd_convergence, True, {
        "--x": ("x", _NONZERO, _REQUIRED), "-K": ("order", _ORDER, 20),
        **_SCHEME}),
}

_HELP = ("usage: oscmap COMMAND [SCHEME] [--flag VALUE | --flag=VALUE ...]\n"
         "SCHEME is a registry name (see 'oscmap schemes') or --file PATH.\n")


def _usage(command: str) -> str:
    """What a command does and its options, read from its table entry."""
    func, takes_scheme, options = _COMMANDS[command]
    lines = [f"oscmap {command}{' [SCHEME]' if takes_scheme else ''}",
             f"  {func.__doc__ or ''}"]
    for flag, (_, (name, _, _), default) in options.items():
        note = ("required" if default is _REQUIRED else
                "" if default is None else f"default {default}")
        lines.append(f"    {flag} {name}  {note}".rstrip())
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
        dest, (name, parse, admits), _ = options[flag]
        try:  # a value out of range is refused like one that does not parse
            value = parse(text)
            if not admits(value):
                raise ValueError
        except ValueError:
            raise SchemeError(f"{flag}: {text!r} is not {name}") from None
        values[dest] = value
    if len(bare) > takes_scheme:
        raise SchemeError(f"unexpected argument {bare[takes_scheme]!r}")
    for flag, (dest, _, _) in options.items():
        if values[dest] is _REQUIRED:
            raise SchemeError(f"{command} needs {flag}")
    scheme = (_resolve_scheme(bare[0] if bare else None, values["file"])
              if takes_scheme else None)
    return SimpleNamespace(command=command, func=func, scheme=scheme, **values)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if args is not None:
            _emit(args, *args.func(args))
        return 0
    except (SchemeError, ValueError) as exc:  # AnalysisError is a ValueError
        print(f"oscmap: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

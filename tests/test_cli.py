"""Golden-file tests of the command-line frontend.

Every subcommand runs in both output formats on SV, LF1, FR, C and BM with
small sizes, and its stdout must match the file under tests/golden/ byte for
byte. A run that exits with an error is pinned through its stderr instead,
stored next to the stdout file with the suffix ".stderr".

To record the files again after an intended output change, run

    PYTHONPATH=src python tests/test_cli.py

and list the changed files with `git status tests/golden`.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oscmap import analysis
from oscmap.analysis import AnalysisError
from oscmap.cli import (
    _csv, _fmt, _json_records, _jsonable, _parse, _sweep_grid, main,
)
from oscmap.phasemap import Regime
from oscmap.schemes import get_scheme, registry_names

GOLDEN = Path(__file__).with_name("golden")
SRC = Path(__file__).resolve().parents[1] / "src"
SCHEMES = ("SV", "LF1", "FR", "C", "BM")
FORMATS = ("csv", "json")

_SUBCOMMAND_ARGS = {
    "analyze": [],
    "sweep": ["--min", "0.1", "--max", "4.0", "--points", "50"],
    "simulate": ["--x", "0.5", "--steps", "2000", "--stride", "100"],
    "stability": [],
    "convergence": ["--x", "0.5", "-K", "20"],
}


def _cases() -> dict[str, list[str]]:
    """Golden file stem -> argv, without the --format option."""
    cases = {"schemes": ["schemes"]}
    for command, extra in _SUBCOMMAND_ARGS.items():
        for name in SCHEMES:
            cases[f"{command}_{name}"] = [command, name, *extra]
    cases["simulate_SV_diverging"] = ["simulate", "SV", "--x", "2.5",
                                      "--steps", "2000", "--stride", "100"]
    for quantity in ("phase_error", "det", "trace", "m_star", "k_star"):
        cases[f"sweep_FR_{quantity}"] = [*cases["sweep_FR"],
                                         "--quantity", quantity]
    # x = 2 is SV's parabolic point: one elliptic, parabolic, hyperbolic row
    cases["sweep_SV_regimes"] = ["sweep", "SV", "--min", "1", "--max", "3",
                                 "--points", "3"]
    # BM's thin unstable window near x = 3.14 and the stable re-entry after it
    cases["sweep_BM_window"] = ["sweep", "BM", "--min", "3.12", "--max", "3.17",
                                "--points", "6"]
    # every point past x = 0.5 overflows the polynomials: hyperbolic rows
    for name in registry_names():
        cases[f"sweep_{name}_overflow"] = ["sweep", name, "--min", "0.5",
                                           "--max", "1e300", "--points", "9"]
    return cases


CASES = _cases()


def _python(args: list[str]) -> subprocess.CompletedProcess:
    """Run the interpreter with this checkout's src on its path, afresh."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, check=False)


def _oscmap(argv: list[str]) -> subprocess.CompletedProcess:
    """Run `python -m oscmap` from this checkout's src in a fresh interpreter."""
    return _python(["-m", "oscmap", *argv])


def _run(argv: list[str], capsys) -> tuple[int, str, str]:
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("stem", sorted(CASES))
def test_output_matches_golden(stem, fmt, capsys):
    code, out, err = _run([*CASES[stem], "--format", fmt], capsys)
    path = GOLDEN / f"{stem}.{fmt}"
    err_path = path.with_name(path.name + ".stderr")
    assert out == path.read_text(encoding="utf-8")
    if err_path.exists():
        assert code == 1
        assert err == err_path.read_text(encoding="utf-8")
    else:
        assert code == 0
        assert err == ""


@pytest.mark.parametrize("argv", [
    ["analyze", "--file", "{tmp}"],
    ["simulate", "SV", "--x", "0", "--steps", "10"],
    ["simulate", "SV", "--x", "nan", "--steps", "10"],
    ["simulate", "SV", "--x", "inf", "--steps", "10"],
    ["sweep", "SV", "--min", "0.1", "--max", "inf", "--points", "3"],
    ["sweep", "SV", "--min", "nan", "--max", "1", "--points", "3"],
    ["simulate", "SV", "--x", "0.5", "--steps", "0"],
    ["simulate", "SV", "--x", "0.5", "--steps", "10", "--stride", "0"],
    ["convergence", "SV", "--x", "0"],
    ["convergence", "SV", "--x", "nan"],
    ["stability", "SV", "-o", "{tmp}/no_such_dir/out.csv"],
    ["analyze", "SV", "-K", "-3"],
    ["convergence", "SV", "--x", "0.5", "-K", "-1"],
    ["simulate", "SV", "--x", "0.5", "--steps", "3", "--q0", "nan"],
    ["simulate", "SV", "--x", "0.5", "--steps", "3", "--p0", "inf"],
    # negative values: the token after a flag is always that flag's value
    ["simulate", "SV", "--x", "-inf", "--steps", "10"],
    ["convergence", "SV", "--x", "-inf"],
    ["sweep", "SV", "--min", "-1e-3", "--max", "1", "--points", "3"],
    ["sweep", "SV", "--min", "0.1", "--max", "-1e-3", "--points", "3"],
    ["simulate", "SV", "--x", "0.5", "--steps", "3", "--q0", "-inf"],
    ["simulate", "SV", "--x", "0.5", "--steps", "3", "--p0", "-1e400"],
    ["analyze", "SV", "--file", "{tmp}"],
    # the command line itself: one error line, never a usage block
    [],
    ["frobnicate", "SV"],
    ["analyze", "SV", "--bogus", "1"],
    ["analyze", "SV", "--form", "json"],
    ["convergence", "SV", "--x"],
    ["analyze", "SV", "-K", "abc"],
    ["analyze", "SV", "--format", "xml"],
    ["sweep", "SV", "--min", "0.1", "--max", "1", "--points", "2.5"],
    ["sweep", "SV", "--min", "0.1"],
    ["analyze", "SV", "BM"],
])
def test_bad_input_exits_1_with_error_line(argv, tmp_path):
    proc = _oscmap([a.format(tmp=tmp_path) for a in argv])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("oscmap: error: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert "usage" not in proc.stderr


def test_scheme_name_with_file_is_an_error(capsys):
    # the name was silently ignored: `stability SV --file <BM>` reported BM
    path = SRC / "oscmap" / "data" / "blanes_moan6.json"
    assert _run(["stability", "--file", str(path)], capsys)[0] == 0
    code, out, err = _run(["stability", "SV", "--file", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("oscmap: error: ") and "not both" in err


@pytest.mark.parametrize("joined, split", [
    (["-K=5"], ["-K", "5"]),
    (["--x=-1e-3"], ["--x", "-1e-3"]),
    (["--format=json"], ["--format", "json"]),
    # a repeated flag keeps its last value
    (["-K", "3", "-K=5", "--format", "csv", "--format", "json"],
     ["-K", "5", "--format", "json"]),
])
def test_flag_equals_value_parses_like_two_tokens(joined, split, capsys):
    argv = ["convergence", "SV", "--x", "0.5"]
    assert vars(_parse([*argv, *joined])) == vars(_parse([*argv, *split]))
    code, out, err = _run([*argv, *joined], capsys)
    assert (code, err) == (0, "")
    assert out == _run([*argv, *split], capsys)[1]


@pytest.mark.parametrize("argv, names", [
    (["--help"], ["schemes", "analyze", "sweep", "simulate", "stability",
                  "convergence"]),
    (["analyze", "--help"], ["[SCHEME]", "-K", "--file", "--format", "-o",
                             "--output"]),
    (["sweep", "SV", "-h"], ["--min", "--max", "--points", "--quantity",
                             "omega_a", "phase_error", "k_star"]),
])
def test_help_exits_0_and_names_every_command_or_flag(argv, names):
    proc = _oscmap(argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: oscmap ")
    assert all(name in proc.stdout for name in names)


@pytest.mark.parametrize("key", ["order", "force_evals"])
@pytest.mark.parametrize("value", ["1e400", "null", "2.5", '"3"', "true", "NaN"])
def test_scheme_file_metadata_must_be_an_integer(key, value, tmp_path):
    doc = {"name": "SV", "order": 2, "force_evals": 1,
           "steps": [{"kind": "kick", "c": 0.5}, {"kind": "drift", "c": 1},
                     {"kind": "kick", "c": 0.5}]}
    doc[key] = "@"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc).replace('"@"', value), encoding="utf-8")
    proc = _oscmap(["stability", "--file", str(path)])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("oscmap: error: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert str(path) in proc.stderr and key in proc.stderr


@pytest.mark.parametrize("key", ["name", "citation"])
@pytest.mark.parametrize("value", ["null", "5", "[1, 2]", "true"])
def test_scheme_file_name_and_citation_must_be_strings(key, value, tmp_path):
    doc = {"name": "SV", "citation": "", "order": 2, "force_evals": 1,
           "steps": [{"kind": "kick", "c": 0.5}, {"kind": "drift", "c": 1},
                     {"kind": "kick", "c": 0.5}]}
    doc[key] = "@"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc).replace('"@"', value), encoding="utf-8")
    proc = _oscmap(["stability", "--file", str(path)])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("oscmap: error: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert str(path) in proc.stderr and f"{key} must be a string" in proc.stderr


@pytest.mark.parametrize("command", [
    ["simulate", "--x", "0.1", "--steps", "2"],
    ["sweep", "--min", "0.1", "--max", "1"],
    ["stability"],
])
@pytest.mark.parametrize("step, steps", [
    # drifts 10^400, -10^400 and 1 sum to 1 exactly, as integers
    (0, [{"kind": "drift", "c": 10**400}, {"kind": "drift", "c": -10**400},
         {"kind": "drift", "c": 1}, {"kind": "kick", "c": 1}]),
    (1, [{"kind": "drift", "c": 1},
         {"kind": "gkick", "c": 1, "u": -10**400}]),
])
def test_scheme_file_coefficient_beyond_float_range(command, step, steps,
                                                    tmp_path):
    doc = {"name": "big", "order": 1, "force_evals": 1, "steps": steps}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = _oscmap([command[0], "--file", str(path), *command[1:]])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("oscmap: error: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert f"{path}: step {step}: " in proc.stderr
    assert "within float range" in proc.stderr


#: Drifts and kicks 1e200, -1e200 and 1, interleaved: every step is within
#: float range and each kind sums to 1, but products of the steps make
#: coefficients of the one-step map beyond it.
_HUGE_MAP_STEPS = [{"kind": kind, "c": c} for c in (1e200, -1e200, 1)
                   for kind in ("drift", "kick")]


@pytest.mark.parametrize("command", [
    ["stability"],
    ["analyze"],
    ["sweep", "--min", "0.1", "--max", "1"],
    ["simulate", "--x", "0.1", "--steps", "2"],
    ["convergence", "--x", "0.1"],
])
def test_map_coefficient_beyond_float_range(command, tmp_path):
    doc = {"name": "huge", "order": 1, "force_evals": 3,
           "steps": _HUGE_MAP_STEPS}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = _oscmap([command[0], "--file", str(path), *command[1:]])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("oscmap: error: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert "'huge'" in proc.stderr and "beyond float range" in proc.stderr


def test_schemes_lists_a_data_file_whose_map_overflows(tmp_path, monkeypatch,
                                                      capsys):
    # is_symmetric reads the map, so the row reports it instead of a verdict
    data = Path(__file__).resolve().parents[1] / "src" / "oscmap" / "data"
    (tmp_path / "blanes_moan6.json").write_bytes(
        (data / "blanes_moan6.json").read_bytes())
    (tmp_path / "mclachlan4.json").write_text(json.dumps(
        {"name": "M", "order": 1, "force_evals": 3, "steps": _HUGE_MAP_STEPS}))
    monkeypatch.setenv("OSCMAP_DATA_DIR", str(tmp_path))
    code, out, err = _run(["schemes", "--format", "json"], capsys)
    rows = {row["name"]: row for row in json.loads(out)}
    assert code == 0 and err == "" and list(rows) == list(registry_names())
    assert rows["M"]["symmetric"] is None
    assert rows["M"]["status"] == ("coefficients unavailable: scheme 'M': a "
                                   "coefficient of its one-step map is beyond "
                                   "float range")
    assert all(rows[n]["status"] == "ok" for n in rows if n != "M")


def _fr_file(tmp_path, **fields) -> str:
    """Path of a scheme file with FR's steps as floats and these fields."""
    doc = {"name": "FR-file", "order": 4, "force_evals": 3,
           "steps": [{"kind": st.kind, "c": st.c}
                     for st in get_scheme("FR").steps], **fields}
    path = tmp_path / "fr.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("force_evals", [10**100, 10**400])
def test_c_star_beyond_float_range_is_null(force_evals, tmp_path):
    path = _fr_file(tmp_path, force_evals=force_evals)
    proc = _oscmap(["analyze", "--file", path, "--format", "json"])
    assert proc.returncode == 0 and proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc["n"] == 4 and doc["c_star"] is None


def test_declared_order_beyond_the_map_degree_is_an_error_line(tmp_path):
    path = _fr_file(tmp_path, order=10**9)
    proc = _oscmap(["analyze", "--file", path])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (f"oscmap: error: {path}: declared order {10**9} "
                           "exceeds 7, the degree of the one-step map in x\n")


def test_simulate_gkick_overflow_prints_nan_rows():
    # eps**3 of C's gkick overflows at x = 1e150
    proc = _oscmap(["simulate", "C", "--x", "1e150", "--steps", "1"])
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines() == ["t,q,p,H", "0,1,0,0.5",
                                        "1e+150,nan,nan,nan"]


@pytest.mark.parametrize("flag, argv", [
    ("--steps", ["simulate", "SV", "--x", "0.5", "--steps", "0"]),
    ("--stride", ["simulate", "SV", "--x", "0.5", "--steps", "10",
                  "--stride", "0"]),
    ("--x", ["convergence", "SV", "--x", "0"]),
    ("--x", ["convergence", "SV", "--x", "inf"]),
    ("-K", ["analyze", "SV", "-K", "-3"]),
    ("-K", ["convergence", "SV", "--x", "0.5", "-K", "-1"]),
    ("--q0", ["simulate", "SV", "--x", "0.5", "--steps", "3", "--q0", "nan"]),
    ("--p0", ["simulate", "SV", "--x", "0.5", "--steps", "3", "--p0=-inf"]),
])
def test_bad_value_error_names_its_flag(flag, argv, capsys):
    code, out, err = _run(argv, capsys)
    assert code == 1 and out == ""
    assert flag in err


def _cell_matches(cell: str, value) -> bool:
    """One CSV cell against the JSON value of the same field."""
    if value is None:  # JSON null: an absent value or a non-finite number
        return cell == "" or not math.isfinite(float(cell))
    if isinstance(value, bool):
        return cell == ("true" if value else "false")
    if isinstance(value, str):
        return cell == value
    return float(cell) == value


@pytest.mark.parametrize("stem", [
    stem for stem in sorted(CASES)
    if stem == "schemes" or stem.startswith(("sweep_", "simulate_"))])
def test_csv_and_json_goldens_hold_the_same_records(stem):
    with open(GOLDEN / f"{stem}.csv", encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    records = json.loads((GOLDEN / f"{stem}.json").read_text(encoding="utf-8"))
    assert isinstance(records, list)
    assert len(rows) == len(records)
    for row, record in zip(rows, records):
        assert list(record) == header
        assert all(_cell_matches(cell, value)
                   for cell, value in zip(row, record.values())), row


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("stem", ["sweep_SV", "stability_SV", "analyze_SV",
                                  "analyze_LF1"])
def test_output_file_gets_the_stdout_bytes(stem, fmt, tmp_path, capsys):
    argv = [*CASES[stem], "--format", fmt]
    _, expected, _ = _run(argv, capsys)
    path = tmp_path / f"out.{fmt}"
    assert _run([*argv, "-o", str(path)], capsys) == (0, "", "")
    assert path.read_bytes() == expected.encode("utf-8")


def _imported_modules(args: list[str]) -> set[str]:
    """Modules `-X importtime` lists for a successful run."""
    proc = _python(["-X", "importtime", *args])
    assert proc.returncode == 0
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "oscmap" in imported
    return imported


def _imported_packages(args: list[str]) -> set[str]:
    """Top-level packages `-X importtime` lists for a successful run."""
    return {name.split(".")[0] for name in _imported_modules(args)}


#: One run of every subcommand, and a bare import.
_EVERY_SUBCOMMAND = [
    ["-c", "import oscmap"],
    ["-m", "oscmap", "schemes"],
    ["-m", "oscmap", "analyze", "SV"],
    ["-m", "oscmap", "analyze", "LF1"],
    ["-m", "oscmap", "stability", "BM"],
    ["-m", "oscmap", "convergence", "C", "--x", "0.5", "-K", "20"],
    ["-m", "oscmap", "sweep", "BM", "--min", "0.1", "--max", "4", "--points", "50"],
    ["-m", "oscmap", "sweep", "C", "--min", "0.1", "--max", "4", "--points", "50",
     "--quantity", "det", "--format", "json"],
    ["-m", "oscmap", "simulate", "FR", "--x", "0.5", "--steps", "100"],
    ["-m", "oscmap", "simulate", "LF1", "--x", "0.5", "--steps", "100"],
    ["-m", "oscmap", "simulate", "SV", "--x", "2.5", "--steps", "2000",
     "--stride", "100"],
]


@pytest.mark.parametrize("args", _EVERY_SUBCOMMAND)
def test_numpy_never_imported(args):
    assert "numpy" not in _imported_packages(args)


@pytest.mark.parametrize("args", _EVERY_SUBCOMMAND)
def test_mpmath_never_imported(args):
    # the Richardson check of analyze runs in integers; mpmath is a test oracle
    assert "mpmath" not in _imported_packages(args)


@pytest.mark.parametrize("args", _EVERY_SUBCOMMAND)
def test_argument_parsing_loads_neither_argparse_nor_gettext(args):
    # argparse with gettext and locale cost ~5 ms per start
    assert not {"argparse", "gettext", "locale"} & _imported_packages(args)


@pytest.mark.parametrize("args", _EVERY_SUBCOMMAND)
def test_dataclasses_never_imported(args):
    # dataclasses pulls in inspect, ast, dis and tokenize: ~10 ms per start
    assert "dataclasses" not in _imported_packages(args)


#: The oscmap modules each subcommand never runs.
_UNUSED = {
    "schemes": {"oscmap.analysis", "oscmap.sim"},
    "sweep": {"oscmap.analysis", "oscmap.sim"},
    "simulate": {"oscmap.analysis"},
    "analyze": {"oscmap.sim"},
    "stability": {"oscmap.sim"},
    "convergence": {"oscmap.sim"},
}


@pytest.mark.parametrize("args", _EVERY_SUBCOMMAND)
def test_subcommand_loads_only_the_modules_it_uses(args):
    imported = _imported_modules(args)
    if args[0] == "-m":
        assert not imported & _UNUSED[args[2]]
    else:  # import oscmap
        assert not [m for m in imported if m.startswith("oscmap.")]
    assert "csv" not in imported  # the CSV writer quotes cells itself


def test_csv_sweep_does_not_import_json():
    imported = _imported_modules(["-m", "oscmap", "sweep", "SV", "--min", "0.1",
                                  "--max", "1", "--points", "5"])
    assert "oscmap.phasemap" in imported and "json" not in imported


def test_analysis_error_in_a_command_is_one_error_line(monkeypatch, capsys):
    def fail(s):
        raise AnalysisError(f"no limit for {s.name}")

    monkeypatch.setattr(analysis, "stability_limit", fail)
    assert _run(["stability", "SV"], capsys) == (
        1, "", "oscmap: error: no limit for SV\n")


def test_cli_imports_without_importlib_resources():
    # without `site`, whose .pth files may load it anyway: the data files are
    # found next to the package, so importlib.resources is never needed
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys; sys.path.insert(0, {str(SRC)!r}); import oscmap.cli; "
         "sys.exit('importlib.resources' in sys.modules)"],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr


# ------------------------------------------------------------------ writers

_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2e-308, 1e16,
     123456789012.5, 1e-5])
#: Text that csv.writer quotes alike on every Python from 3.10: no CR (3.13
#: quotes it, 3.10 to 3.12 do not) and no NUL (3.10 cannot write it).
_TEXT = st.text(st.sampled_from(',"\n ') | st.characters(
    blacklist_categories=("Cs",), blacklist_characters="\r\x00"), max_size=6)
_CELLS = st.one_of(_FLOATS, st.none(), st.integers(), st.booleans(),
                   st.sampled_from(list(Regime)), _TEXT)


@st.composite
def _tables(draw, text=_TEXT):
    """(header, rows): distinct names, and columns of floats and None or of
    any cell, so both paths of each writer run."""
    width = draw(st.integers(2, 4))
    header = draw(st.lists(text, min_size=width, max_size=width, unique=True))
    kinds = [draw(st.sampled_from([_FLOATS | st.none(), _CELLS]))
             for _ in range(width)]
    rows = draw(st.lists(st.tuples(*kinds), max_size=5))
    return header, rows


def _csv_writer_oracle(header, rows) -> str:
    """The CSV that csv.writer makes of the header and the `_fmt` cells."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([[v if isinstance(v, str) else _fmt(v) for v in row]
                      for row in rows])
    return buf.getvalue()


def _json_dumps_oracle(header, rows) -> str:
    records = [dict(zip(header, row)) for row in rows]
    return json.dumps(_jsonable(records), indent=2, allow_nan=False) + "\n"


@settings(max_examples=300, deadline=None)
@given(table=_tables())
@example(table=(["a", "b"], []))
def test_csv_writer_matches_csv_module(table):
    assert _csv(*table) == _csv_writer_oracle(*table)


@settings(max_examples=300, deadline=None)
@given(table=_tables(text=_TEXT | st.text(st.sampled_from('\r%"\\é\x00'))))
@example(table=(["a", "b"], []))
def test_json_records_match_json_dumps(table):
    assert _json_records(*table) == _json_dumps_oracle(*table)


def test_csv_quotes_a_carriage_return_on_every_python():
    assert _csv(["a\rb", "c"], [["x\r", 1.5], ["y", None]]) == (
        '"a\rb",c\n"x\r",1.5\ny,\n')


@pytest.mark.parametrize("rows", [[[""]], [[None], ["x"], [""]]])
def test_csv_writes_a_lone_empty_cell_as_two_quotes(rows):
    text = _csv(["a"], rows)
    assert text == _csv_writer_oracle(["a"], rows)
    assert '""\n' in text and "\n\n" not in text


# --------------------------------------------------------------- sweep grid

@settings(max_examples=200, deadline=None)
@given(lo=st.floats(0.0, 1e6, exclude_min=True),
       width=st.floats(0.0, 1e6, exclude_min=True),
       points=st.integers(2, 400))
@example(lo=5e-324, width=5e-324, points=7)  # the step underflows to 0
@example(lo=0.1, width=3.9, points=2)
def test_sweep_grid_is_linspace_bitwise(lo, width, points):
    hi = lo + width
    assume(lo < hi)
    assert ([x.hex() for x in _sweep_grid(lo, hi, points)]
            == [x.hex() for x in np.linspace(lo, hi, points).tolist()])


def test_simulate_accepts_negative_x(capsys):
    argv = ["simulate", "SV", "--steps", "4", "--x"]
    code, out, _ = _run([*argv, "-0.5"], capsys)
    _, forward, _ = _run([*argv, "0.5"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()]
    assert rows[1][0] == "0" and rows[-1][0] == "-2"
    # M(-eps) = M(eps)^-1 conserves the same shadow energy
    h_a = rows[0].index("H_A")
    assert [r[h_a] for r in rows[1:]] == [
        line.split(",")[h_a] for line in forward.splitlines()[1:]]


@pytest.mark.parametrize("flag, value", [("--x", "-1e-3"), ("--q0", "-2E+1"),
                                         ("--p0", "-1.5e-2")])
def test_negative_value_in_exponent_form_is_read_as_a_value(flag, value,
                                                           capsys):
    values = {"--x": "0.5", "--q0": "1", "--p0": "0", flag: value}
    argv = ["simulate", "SV", "--steps", "1"]
    split = [token for item in values.items() for token in item]
    joined = [f"{k}={v}" for k, v in values.items()]
    code, out, err = _run([*argv, *split], capsys)
    assert (code, err) == (0, "")
    assert out == _run([*argv, *joined], capsys)[1]


@pytest.mark.parametrize("name, tol", [("SV", 0.0), ("FR", 1e-184),
                                       ("BM", 1e-184)])
def test_simulate_keeps_its_shadow_columns_at_the_smallest_steps(name, tol,
                                                                 capsys):
    # nu*tau - w^2 ~ x^2 and theta*t ~ x^2 underflow below x ~ 1e-162; the
    # closed form must still match p ~ 1e-170 to round-off
    code, out, _ = _run(["simulate", name, "--x", "1e-170", "--steps", "2",
                         "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert [r["t"] for r in rows] == [0.0, 1e-170, 2e-170]
    assert all(r["H_A"] == 0.5 and r["closed_form_error"] <= tol for r in rows)


@pytest.mark.parametrize("name", ["LF1", "LF1T"])
def test_simulate_prints_sigma_for_a_non_reversible_scheme_at_any_step(
        name, capsys):
    # g - h = x^2 is 1e-12 here: the scheme is still not reversible
    code, out, _ = _run(["simulate", name, "--x", "1e-6", "--steps", "2"],
                        capsys)
    assert code == 0
    assert out.splitlines()[0] == "t,q,p,H,sigma,closed_form_error"


def test_split_drift_scheme_is_reversible(tmp_path, capsys):
    # SV with its drift split in two uneven parts has SV's map exactly
    steps = [{"kind": "kick", "c": 0.5}, {"kind": "drift", "c": 0.25},
             {"kind": "drift", "c": 0.75}, {"kind": "kick", "c": 0.5}]
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"name": "split-drift SV", "order": 2,
                                "force_evals": 1, "steps": steps}),
                    encoding="utf-8")
    code, out, _ = _run(["analyze", "--file", str(path), "--format", "json"],
                        capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["reversible"] is True
    assert set(doc["series"]["sigma"]) == {0}
    code, out, _ = _run(["simulate", "--file", str(path), "--x", "0.5",
                         "--steps", "3"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "t,q,p,H,H_A,closed_form_error"


@pytest.mark.parametrize("name, sums", [
    ("C", ["1", "1", "1", "1"]),                 # 1 + c4 x^4 + ...
    ("LF1", ["1", "1", "inf", "inf", "inf"]),
])
def test_convergence_zero_terms_leave_the_partial_sum_where_x_k_overflows(
        name, sums, capsys):
    # x^k is inf from k = 2 on; a zero coefficient adds nothing, not 0*inf
    code, out, _ = _run(["convergence", name, "--x", "1e300",
                         "-K", str(len(sums) - 1)], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:-1]]
    assert [r[1] for r in rows] == sums


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.iterdir():
        stale.unlink()
    for stem, argv in sorted(CASES.items()):
        for fmt in FORMATS:
            proc = _oscmap([*argv, "--format", fmt])
            path = GOLDEN / f"{stem}.{fmt}"
            path.write_text(proc.stdout, encoding="utf-8")
            if proc.returncode != 0:
                path.with_name(path.name + ".stderr").write_text(
                    proc.stderr, encoding="utf-8")


if __name__ == "__main__":
    _record()

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

from oscmap import analysis, cli, sim
from oscmap.analysis import AnalysisError
from oscmap.cli import _csv, _json, _json_records, _parse, _sweep_grid, main
from oscmap.phasemap import Regime, sweep
from oscmap.schemes import SchemeError, get_scheme, registry_names

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
    # M's coefficients are pinned here by its c_4, x_max and series
    cases["analyze_M"] = ["analyze", "M"]
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
    # values the option table puts out of range
    ["sweep", "SV", "--min", "0.1", "--max", "1", "--points", "1"],
    ["sweep", "SV", "--min", "0", "--max", "1", "--points", "3"],
    ["sweep", "SV", "--min", "1", "--max", "0.5", "--points", "3"],
    ["analyze", "SV", "-K", "100000000000000000000"],
    ["convergence", "SV", "--x", "0.5", "-K", "100000000000000000000"],
    ["simulate", "SV", "--x", "0.5", "--steps", "100000000000000000000"],
    # more rows than a run may sample: refused before iterating
    ["simulate", "SV", "--x", "0.5", "--steps", "1000000"],
    ["simulate", "SV", "--x", "0.5", "--steps", "1000000000", "--stride", "999"],
])
def test_bad_input_exits_1_with_error_line(argv, tmp_path):
    proc = _oscmap([a.format(tmp=tmp_path) for a in argv])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("oscmap: error: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert "usage" not in proc.stderr


@pytest.mark.parametrize("flag, dest, argv, largest", [
    ("-K", "order", ["analyze", "SV"], 10_000),
    ("-K", "order", ["convergence", "SV", "--x", "0.5"], 10_000),
    ("--points", "points", ["sweep", "SV", "--min", "0.1", "--max", "1"], 10**6),
    ("--steps", "steps", ["simulate", "SV", "--x", "0.5"], 10**9),
])
def test_order_and_points_have_an_upper_bound(flag, dest, argv, largest):
    # parsed only: a series or a grid of the largest size is not built
    assert getattr(_parse([*argv, flag, str(largest)]), dest) == largest
    for value in (largest + 1, 10**22):
        with pytest.raises(SchemeError, match=f"^{flag}: '{value}' is not INT"):
            _parse([*argv, flag, str(value)])


def test_scheme_name_with_file_is_an_error(tmp_path, capsys):
    # the name was silently ignored: `stability SV --file <FR>` reported FR
    path = _fr_file(tmp_path)
    assert _run(["stability", "--file", path], capsys)[0] == 0
    code, out, err = _run(["stability", "SV", "--file", path], capsys)
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
    # each option with its range
    (["simulate", "--help"], ["--steps INT (1 to 1000000000)",
                              "--stride INT (>= 1)",
                              "--x FLOAT (finite, nonzero)"]),
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


@pytest.mark.parametrize("name", ["LF1", "LF1T"])
def test_simulate_where_one_map_entry_leaves_the_float_range(name):
    # at x = 1e200 the diagonal entry 1 - x^2 of LF1 and LF1T is -inf, while
    # the other is 1: T +- x^2 W, the form of the sweep kernel, would give
    # inf - inf = NaN there, and the scalar map must read a regime instead
    proc = _oscmap(["simulate", name, "--x", "1e200", "--steps", "2"])
    assert proc.returncode == 0 and "oscmap: error:" not in proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["t,q,p,H", "0,1,0,0.5"] and len(lines) == 4


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
    ("--points", ["sweep", "SV", "--min", "0.1", "--max", "1", "--points", "1"]),
    ("--min", ["sweep", "SV", "--min", "0", "--max", "1"]),
    ("--max", ["sweep", "SV", "--min", "0.1", "--max", "inf"]),
    ("--min", ["sweep", "SV", "--min", "1", "--max", "0.5"]),
    ("-K", ["analyze", "SV", "-K", "100000000000000000000"]),
    ("-K", ["convergence", "SV", "--x", "0.5", "-K", "100000000000000000000"]),
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
    ["-m", "oscmap", "schemes", "--format", "json"],
    ["-m", "oscmap", "analyze", "SV", "--format", "json"],
    ["-m", "oscmap", "stability", "BM", "--format", "json"],
    ["-m", "oscmap", "convergence", "C", "--x", "0.5", "-K", "20",
     "--format", "json"],
    ["-m", "oscmap", "simulate", "FR", "--x", "0.5", "--steps", "100",
     "--format", "json"],
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


@pytest.mark.parametrize("args", _EVERY_SUBCOMMAND)
def test_typing_never_imported(args):
    # without `site`, whose .pth files may load typing themselves: the records
    # are built on collections.namedtuple, not typing.NamedTuple
    assert "typing" not in _imported_packages(["-S", *args])


#: The modules that only `sweep`, only `simulate` or only `--file` runs, and
#: the series ring, which only the commands that import `analysis` run.
_KERNEL, _CLOSED_FORM, _SCHEME_FILE, _SERIES = (
    "oscmap.sweepkernel", "oscmap.closedform", "oscmap.schemefile",
    "oscmap.series")

#: The oscmap modules each subcommand never runs.
_UNUSED = {
    "schemes": {"oscmap.analysis", "oscmap.sim", _KERNEL, _CLOSED_FORM,
                _SCHEME_FILE, _SERIES},
    "sweep": {"oscmap.analysis", "oscmap.sim", _CLOSED_FORM, _SCHEME_FILE,
              _SERIES},
    "simulate": {"oscmap.analysis", _KERNEL, _SCHEME_FILE, _SERIES},
    "analyze": {"oscmap.sim", _KERNEL, _CLOSED_FORM, _SCHEME_FILE},
    "stability": {"oscmap.sim", _KERNEL, _CLOSED_FORM, _SCHEME_FILE},
    "convergence": {"oscmap.sim", _KERNEL, _CLOSED_FORM, _SCHEME_FILE},
}


@pytest.mark.parametrize("args", _EVERY_SUBCOMMAND)
def test_subcommand_loads_only_the_modules_it_uses(args):
    imported = _imported_modules(args)
    if args[0] == "-m":
        assert not imported & _UNUSED[args[2]]
        assert (_SERIES in imported) == (args[2] in ("analyze", "stability",
                                                     "convergence"))
    else:  # import oscmap
        assert not [m for m in imported if m.startswith("oscmap.")]
    assert "csv" not in imported  # the CSV writer quotes cells itself


def test_csv_sweep_does_not_import_json():
    # every registry scheme is defined in code, so none is read from a file
    for name in ("SV", "BM"):
        imported = _imported_modules(["-m", "oscmap", "sweep", name, "--min",
                                      "0.1", "--max", "1", "--points", "5"])
        assert "oscmap.phasemap" in imported and "json" not in imported


@pytest.mark.parametrize("args", [args for args in _EVERY_SUBCOMMAND
                                  if "json" in args])
def test_json_output_does_not_import_json(args):
    # the writer escapes text with the function of CPython's _json itself
    assert "json" not in _imported_modules(args)


def test_a_scheme_file_run_imports_json_and_the_scheme_file_reader(tmp_path):
    path = tmp_path / "sv.json"
    path.write_text(json.dumps({"name": "SV", "order": 2, "force_evals": 1,
                                "steps": [{"kind": "kick", "c": 0.5},
                                          {"kind": "drift", "c": 1},
                                          {"kind": "kick", "c": 0.5}]}),
                    encoding="utf-8")
    imported = _imported_modules(["-m", "oscmap", "stability", "--file",
                                  str(path), "--format", "json"])
    assert {"json", _SCHEME_FILE} <= imported


def test_analysis_error_in_a_command_is_one_error_line(monkeypatch, capsys):
    def fail(s):
        raise AnalysisError(f"no limit for {s.name}")

    monkeypatch.setattr(analysis, "stability_limit", fail)
    assert _run(["stability", "SV"], capsys) == (
        1, "", "oscmap: error: no limit for SV\n")


def test_cli_imports_without_importlib_resources():
    # without `site`, whose .pth files may load it anyway: no command reads
    # a packaged resource, so importlib.resources is never needed
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
#: Text that json.dumps escapes, with the % of the writers' templates.
_JSON_TEXT = _TEXT | st.text(st.sampled_from('\r%"\\é\x00'))


@st.composite
def _tables(draw, text=_TEXT):
    """(header, rows): distinct names, and columns of floats and None, of
    text and Regime members or of any cell, so every path of each writer
    runs."""
    width = draw(st.integers(2, 4))
    header = draw(st.lists(text, min_size=width, max_size=width, unique=True))
    kinds = [draw(st.sampled_from([_FLOATS | st.none(),
                                   text | st.sampled_from(list(Regime)),
                                   _CELLS]))
             for _ in range(width)]
    rows = draw(st.lists(st.tuples(*kinds), max_size=5))
    return header, rows


def _csv_number(v) -> str:
    """One number as a CSV cell: 12 significant digits, bools as true or
    false, ints in full and None as an empty cell."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return "" if v is None else f"{float(v):.12g}"


def _csv_writer_oracle(header, rows) -> str:
    """The CSV that csv.writer makes of the header and the cells, each
    number written by `_csv_number`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([[v if isinstance(v, str) else _csv_number(v)
                       for v in row] for row in rows])
    return buf.getvalue()


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


def _json_dumps_oracle(doc) -> str:
    """The JSON that json.dumps makes of doc, each value by `_jnum`."""
    return json.dumps(_jsonable(doc), indent=2, allow_nan=False)


def _json_records_oracle(header, rows) -> str:
    records = [dict(zip(header, row)) for row in rows]
    return _json_dumps_oracle(records) + "\n"


#: One table per column route of the writers.
_ROUTES = (
    # floats only, with every special value
    (["x", "y"], [(math.nan, 1.0), (math.inf, -0.0), (-math.inf, 5e-324),
                  (-0.0, 123456789012.5)]),
    # Regime members only
    (["r", "x"], [(Regime.ELLIPTIC, 0.5), (Regime.PARABOLIC, 2.0),
                  (Regime.HYPERBOLIC, 3.0)]),
    # text that needs quotes
    (["a,b", 'q"'], [("x,y", 'say "hi"'), ("line\nbreak", "plain")]),
    # floats with gaps
    (["v", "w"], [(1.5, None), (None, math.nan), (1e16, -2.2e-308)]),
    # ints and bools, apart and mixed
    (["n", "flag", "mix"], [(3, True, 0), (-7, False, True),
                            (10**20, True, -1)]),
    # one column with empty cells
    (["a"], [("",), (None,), ("x",), ("",)]),
    # no rows
    (["a", "b"], []),
    # text that needs no quotes next to Regime members
    (["name", "regime"], [("SV", Regime.ELLIPTIC), ("", Regime.PARABOLIC),
                          ("é 1", Regime.HYPERBOLIC)]),
    # the same with one cell that needs quotes
    (["name", "regime"], [("SV", Regime.ELLIPTIC), ("", Regime.PARABOLIC),
                          ("é,1", Regime.HYPERBOLIC)]),
    # one column of text that holds an empty cell
    (["a"], [("x",), ("",), ("y",)]),
)


def _route_examples(test):
    """test with an @example of each table in _ROUTES."""
    for table in _ROUTES:
        test = example(table=table)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(table=_tables())
@_route_examples
def test_csv_writer_matches_csv_module(table):
    assert _csv(*table) == _csv_writer_oracle(*table)


@settings(max_examples=300, deadline=None)
@given(table=_tables(text=_JSON_TEXT))
@_route_examples
def test_json_records_match_json_dumps(table):
    assert _json_records(*table) == _json_records_oracle(*table)


_DOCS = st.recursive(
    st.one_of(_FLOATS, st.integers(-10**20, 10**20), st.booleans(), st.none(),
              _JSON_TEXT),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_JSON_TEXT, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(doc=_DOCS)
@example(doc={"values": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16,
                         123456789012.5, 10**20, True, None,
                         'q"\\é\x00\r%'],
              "empty": {"dict": {}, "list": []}})
@example(doc={})
@example(doc=[])
def test_document_encoder_matches_json_dumps(doc):
    assert _json(doc) == _json_dumps_oracle(doc)


@pytest.mark.parametrize("name", registry_names())
@pytest.mark.parametrize("argv", [["analyze"], ["stability"],
                                  ["convergence", "--x", "0.5", "-K", "20"]])
def test_documents_of_every_scheme_match_json_dumps(argv, name):
    args = _parse([argv[0], name, *argv[1:]])
    _, _, doc = args.func(args)
    assert _json(doc) == _json_dumps_oracle(doc)


@pytest.mark.parametrize("name, quantity, gaps", [
    ("BM", "omega_a", True), ("SV", "det", False)])
def test_sweep_tables_match_the_oracles(name, quantity, gaps):
    rows = sweep(get_scheme(name), _sweep_grid(0.05, 4.0, 2000), quantity)
    # BM is hyperbolic past x = 3.13..., where omega_a is None
    assert (None in [value for _, value, _ in rows]) is gaps
    header = ["x", "value", "regime"]
    assert _csv(header, rows) == _csv_writer_oracle(header, rows)
    assert _json_records(header, rows) == _json_records_oracle(header, rows)


@pytest.mark.parametrize("writer", [_csv, _json_records])
@pytest.mark.parametrize("rows, bad", [
    ([[1.0, 2.0], [3.0, 4.0]], "row 0 of the table has 2 cells"),
    ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0]], "row 1 of the table has 4 cells"),
    ([[1.0, 2.0, 3.0], ["a", "b"]], "row 1 of the table has 2 cells")])
def test_writers_refuse_a_row_whose_length_differs_from_the_header(
        writer, rows, bad):
    with pytest.raises(ValueError, match=f"^{bad} under a header of 3$"):
        writer(["a", "b", "c"], rows)


def test_csv_quotes_a_carriage_return_on_every_python():
    assert _csv(["a\rb", "c"], [["x\r", 1.5], ["y", None]]) == (
        '"a\rb",c\n"x\r",1.5\ny,\n')


@pytest.mark.parametrize("rows", [[[""]], [[None], ["x"], [""]]])
def test_csv_writes_a_lone_empty_cell_as_two_quotes(rows):
    text = _csv(["a"], rows)
    assert text == _csv_writer_oracle(["a"], rows)
    assert '""\n' in text and "\n\n" not in text


@settings(max_examples=300, deadline=None)
@given(width=st.integers(1, 3), data=st.data())
def test_csv_float_columns_with_gaps_write_the_cells_of_fmt(width, data):
    # such a column is written by one format spec, not by a call per cell
    cells = st.lists(_FLOATS | st.none(), min_size=width, max_size=width)
    rows = data.draw(st.lists(cells, max_size=8)) + [[None] * width]
    lines = [",".join(map(cli._fmt, row)) or '""' for row in rows]
    header = [f"c{i}" for i in range(width)]
    assert _csv(header, rows) == "\n".join([",".join(header), *lines, ""])


#: Text json.dumps escapes: controls, quotes, lone surrogates, astral.
_ANY_TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from(
    ["\x00", "\x1f", "\x7f", '"', "\\", "\ud800", "\udfff", "\U0001f600"]))


@settings(max_examples=500, deadline=None)
@given(text=_ANY_TEXT)
@example(text="\x00\r\n\t\x7f  \ud83d \ude00 \U0001f600 \"\\ é")
def test_encode_str_matches_json_dumps(text):
    assert cli._encode_str(text) == json.dumps(text)


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


@pytest.mark.parametrize("name, tol", [("SV", 0.0), ("LF1", 0.0),
                                       ("LF1T", 0.0), ("FR", 1e-184),
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
def test_simulate_prints_h_a_for_a_non_reversible_scheme_at_any_step(
        name, capsys):
    # g - h = x^2 tilts the invariant ellipse, which H_A follows: one value
    # on every row, the same at -x as at x
    argv = ["simulate", name, "--steps", "40", "--stride", "8", "--format",
            "json", "--x"]
    for x in ("1e-6", "0.5", "1.9"):
        code, out, _ = _run([*argv, x], capsys)
        assert code == 0
        rows = json.loads(out)
        assert list(rows[0]) == ["t", "q", "p", "H", "H_A", "closed_form_error"]
        h_a = [r["H_A"] for r in rows]
        assert max(h_a) - min(h_a) <= 1e-12 * h_a[0], x
        _, out, _ = _run([*argv, "-" + x], capsys)
        assert [r["H_A"] for r in json.loads(out)] == h_a, x


def test_simulate_builds_one_map(monkeypatch, capsys):
    calls = {"scheme_matrix": 0, "spectral": 0}

    def counted(name):
        func = getattr(cli, name)

        def wrapper(*args):
            calls[name] += 1
            return func(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    for scheme in ("SV", "LF1", "BM"):
        calls.update(dict.fromkeys(calls, 0))
        code, _, _ = _run(["simulate", scheme, "--x", "0.5", "--steps", "100",
                           "--stride", "10"], capsys)
        assert code == 0
        assert calls == {"scheme_matrix": 1, "spectral": 1}, scheme
    for name in ("scheme_matrix", "spectral", "is_symmetric"):
        assert not hasattr(sim, name), name


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
    ("FR", ["1", "1", "1", "1"]),                # c2 = -3.7e-17 is round-off
    ("BM", ["1", "1", "1", "1"]),                # c2 = 3.6e-18 is round-off
])
def test_convergence_zero_terms_leave_the_partial_sum_where_x_k_overflows(
        name, sums, capsys):
    # x^k is inf from k = 2 on; a zero coefficient adds nothing, not 0*inf,
    # and neither does a float scheme's residue below its leading order
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

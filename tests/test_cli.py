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
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oscmap.cli import _sweep_grid, main

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
])
def test_bad_input_exits_1_with_error_line(argv, tmp_path):
    proc = _oscmap([a.format(tmp=tmp_path) for a in argv])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("oscmap: error: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


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


def _imported_packages(args: list[str]) -> set[str]:
    """Top-level packages `-X importtime` lists for a successful run."""
    proc = _python(["-X", "importtime", *args])
    assert proc.returncode == 0
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "oscmap" in imported
    return {name.split(".")[0] for name in imported}


@pytest.mark.parametrize("args", [
    ["-c", "import oscmap"],
    ["-m", "oscmap", "simulate", "SV", "--x", "0.5", "--steps", "4"],
])
def test_mpmath_not_imported_outside_richardson_check(args):
    assert "mpmath" not in _imported_packages(args)


@pytest.mark.parametrize("args", [
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
])
def test_numpy_never_imported(args):
    assert "numpy" not in _imported_packages(args)


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

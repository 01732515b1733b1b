"""Tests of the benchmark's own logic: inputs, checks, statistics, tracing."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Invocation  # noqa: E402


def _oscmap_stdout(argv) -> str:
    from oscmap import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def _small(inv: Invocation, **sizes) -> Invocation:
    """The same invocation with smaller sizes, so tests stay fast."""
    params = dict(inv.params) | sizes
    flags = {"points": "--points", "steps": "--steps", "stride": "--stride", "K": "-K"}
    argv = list(inv.argv)
    for key, value in sizes.items():
        argv[argv.index(flags[key]) + 1] = str(value)
    return Invocation(inv.workload, inv.scheme, tuple(argv), inv.units,
                      tuple(params.items()))


def _first(workload: str, scheme: str, quantity: str | None = None) -> Invocation:
    invs, _ = workloads.build(workload, 3)
    return next(i for i in invs if i.scheme == scheme
                and (quantity is None or i.param("quantity") == quantity))


# ------------------------------------------------------------------ inputs

@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_same_seed_same_argv(workload):
    a, rng_a = workloads.build(workload, 11)
    b, rng_b = workloads.build(workload, 11)
    assert a == b
    assert [i.argv for i in workloads.shuffled(a, rng_a)] == \
        [i.argv for i in workloads.shuffled(b, rng_b)]


def test_seed_changes_inputs_not_sizes():
    a, _ = workloads.build("simulate", 1)
    b, _ = workloads.build("simulate", 2)
    assert [i.argv for i in a] != [i.argv for i in b]
    assert [i.units for i in a] == [i.units for i in b]


# ------------------------------------------------------------------ checks

def test_checks_accept_program_output():
    cases = [
        _first("analyze", "SV"), _first("analyze", "FR"), _first("analyze", "LF1"),
        _small(_first("sweep", "C", "omega_a"), points=300),
        _small(_first("sweep", "BM", "det"), points=300),
        _small(_first("simulate", "FR"), steps=2000, stride=100),
        _small(_first("series", "C"), K=30),
    ]
    for inv in cases:
        assert checks.check(inv, _oscmap_stdout(inv.argv)) >= 1


def test_nan_token_rejected():
    inv = _small(_first("simulate", "BM"), steps=500, stride=50)
    text = _oscmap_stdout(inv.argv)
    checks.check(inv, text)
    rows = json.loads(text)
    bad = text.replace(json.dumps(rows[3]["q"]), "NaN", 1)
    with pytest.raises(checks.CheckError, match="NaN"):
        checks.check(inv, bad)
    inv = _first("analyze", "SV")
    text = _oscmap_stdout(inv.argv)
    with pytest.raises(checks.CheckError):
        checks.check(inv, text.replace('"c_n": ', '"c_n": Infinity, "x": ', 1))


@pytest.mark.parametrize("scheme", ["SV", "FR", "C", "BM"])
def test_x_max_off_by_1e_3_rejected(scheme):
    inv = _first("analyze", scheme)
    obj = json.loads(_oscmap_stdout(inv.argv))
    for shift in (1e-3, -1e-3):
        bad = dict(obj, stability=dict(obj["stability"],
                                       x_max=obj["stability"]["x_max"] + shift))
        with pytest.raises(checks.CheckError, match="x_max"):
            checks.check(inv, json.dumps(bad))


def test_det_off_by_1e_9_rejected():
    inv = _small(_first("sweep", "FR", "det"), points=200)
    lines = _oscmap_stdout(inv.argv).split("\n")
    x, value, regime = lines[57].split(",")
    lines[57] = f"{x},{float(value) + 1e-9!r},{regime}"
    with pytest.raises(checks.CheckError, match="det"):
        checks.check(inv, "\n".join(lines))


def test_sweep_omega_disagreeing_with_shear_product_rejected():
    inv = _small(_first("sweep", "SV", "omega_a"), points=100)
    lines = _oscmap_stdout(inv.argv).split("\n")
    bad = [lines[0]]
    for line in lines[1:-1]:
        x, value, regime = line.split(",")
        bad.append(f"{x},{float(value) * (1 + 1e-6)!r},{regime}")
    with pytest.raises(checks.CheckError, match="omega_a"):
        checks.check(inv, "\n".join(bad + [""]))


def test_series_partial_sum_must_reach_closed_form():
    inv = _small(_first("series", "SV"), K=4)
    with pytest.raises(checks.CheckError, match="partial sum"):
        checks.check(inv, _oscmap_stdout(inv.argv))


# -------------------------------------------------------------- statistics

def test_self_time_on_synthetic_span_tree():
    #   0 root [0, 100]
    #   1   a  [10, 40]     3 grandchild of a [15, 25]
    #   2   b  [50, 70]
    #   4   c  [60, 80]     overlaps b; the union [50, 80] is covered
    starts = [0, 10, 50, 15, 60]
    ends = [100, 40, 70, 25, 80]
    parents = [-1, 0, 0, 1, 0]
    assert stats.self_times(starts, ends, parents) == [40, 20, 20, 10, 20]


def test_layer_totals_count_matrix_evals_under_stability_only():
    names = ["cli.main", "analysis.stability_limit", "phasemap.scheme_matrix"]
    totals = tracing.LayerTotals()
    # main -> stability -> 2 matrices; main -> 1 matrix directly
    totals.add(names, [0, 1, 2, 2, 2], [0, 1, 2, 4, 8], [10, 7, 3, 5, 9],
               [-1, 0, 1, 1, 0])
    assert totals.matrix_evals == 2
    assert totals.per_invocation("phasemap.scheme_matrix", "calls") == 3
    assert totals.per_invocation("cli.main", "self_ms") == pytest.approx(3e-6)
    assert totals.share(("analysis.stability_limit",)) == pytest.approx(0.6)


@pytest.mark.parametrize("n", [11, 15, 19, 20, 39, 40, 99, 100, 250, 1000])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    values = [float(v) for v in range(n)]
    value, pct = stats.tail(values)
    assert sum(v > value for v in values) >= stats.TAIL_BEYOND
    higher = [p for p in stats.TAIL_LADDER if p > pct]
    assert all(stats.beyond(n, p) < stats.TAIL_BEYOND for p in higher)


def test_tail_falls_back_to_maximum_when_samples_are_few():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, None)
    assert stats.tail_rank(20) == (9, 50.0)
    assert stats.tail_rank(40) == (29, 75.0)
    assert stats.tail_rank(15) == (4, pytest.approx(100 * 5 / 15))


def test_round_cost_sums_per_invocation_medians():
    # invocation 0: 1, 2, 9 -> median 2; invocation 1: 10, 20 -> median 15
    keys = [0, 1, 0, 1, 0]
    values = [1.0, 10.0, 2.0, 20.0, 9.0]
    assert stats.round_cost(keys, values) == 17.0
    assert stats.round_sums([0, 0, 1, 1, 2], values) == [11.0, 22.0, 9.0]


# ----------------------------------------------------------------- tracing

def test_tracer_records_spans_and_restores_functions():
    from oscmap import analysis, phasemap, schemes
    original = phasemap.scheme_matrix
    tracer = tracing.Tracer()
    assert tracer.install() == []
    try:
        assert analysis.scheme_matrix is not original
        s = schemes.get_scheme("SV")
        phasemap.spectral(analysis.scheme_matrix(s, 0.5, 1.0))
    finally:
        tracer.uninstall()
    assert phasemap.scheme_matrix is original and analysis.scheme_matrix is original
    names = [tracer.names[i] for i in tracer.nid]
    assert names[:2] == ["schemes.get_scheme", "phasemap.scheme_matrix"]
    assert "schemes.active_steps" in names and names[-1] == "phasemap.spectral"
    assert tracer.parent[names.index("schemes.active_steps")] == 1


def test_missing_public_name_is_reported_absent(monkeypatch):
    from oscmap import phasemap
    monkeypatch.setattr(phasemap, "__all__",
                        [n for n in phasemap.__all__ if n != "spectral"])
    tracer = tracing.Tracer()
    try:
        absent = tracer.install()
    finally:
        tracer.uninstall()
    assert absent == ["phasemap.spectral"]


def test_benchmark_json_lists_what_the_code_reports():
    import run
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.BUILDERS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(tracing.PER_LAYER)
    for metric, _ in tracing.PER_LAYER:
        assert metric in tracing.SPECIAL or tracing.split_metric(metric)

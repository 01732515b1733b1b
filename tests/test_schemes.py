"""Tests for scheme construction, registry, symmetry, and file I/O."""

import json
from fractions import Fraction

import pytest

import oscmap
from oscmap import analysis, phasemap, schemes, sim
from oscmap.schemes import (
    DRIFT, GKICK, KICK, Scheme, SchemeError, SchemeFileError, Step,
    get_scheme, has_exact_coefficients, is_symmetric, load_scheme, registry,
    registry_names,
)


def test_registry_contents():
    names = [s.name for s in registry()]
    assert names == list(registry_names())
    for expected in ("SV", "FR", "M", "BM", "C", "LF1"):
        assert expected in names


def test_registry_sv_three_steps():
    sv = get_scheme("SV")
    assert len(sv.steps) == 3
    assert [st.kind for st in sv.steps] == [KICK, DRIFT, KICK]
    assert sv.steps[0].c == Fraction(1, 2)


def test_registry_fr_sums():
    fr = get_scheme("FR")
    drift_sum = sum(s.c for s in fr.steps if s.kind == DRIFT)
    kick_sum = sum(s.c for s in fr.steps if s.kind == KICK)
    assert abs(drift_sum - 1) <= 1e-12
    assert abs(kick_sum - 1) <= 1e-12
    assert len(fr.steps) == 7


def test_registry_exactness_split():
    assert has_exact_coefficients(get_scheme("SV"))
    assert has_exact_coefficients(get_scheme("C"))
    assert has_exact_coefficients(get_scheme("LF1"))
    assert not has_exact_coefficients(get_scheme("FR"))
    assert not has_exact_coefficients(get_scheme("M"))


def test_unknown_scheme():
    with pytest.raises(SchemeError, match="unknown scheme"):
        get_scheme("nope")


# ------------------------------------------------------------- validation

def test_step_validation():
    with pytest.raises(SchemeError, match="unknown step kind"):
        Step("drip", 1.0)
    with pytest.raises(SchemeError, match="gradient coefficient"):
        Step(GKICK, 0.5)
    with pytest.raises(SchemeError, match="must not carry"):
        Step(KICK, 0.5, u=0.1)


@pytest.mark.parametrize("value", [10**400, -10**400, Fraction(10**400, 3),
                                   float("nan"), float("inf")])
def test_step_coefficients_must_round_to_a_finite_float(value):
    with pytest.raises(SchemeError, match="within float range"):
        Step(DRIFT, value)
    with pytest.raises(SchemeError, match="within float range"):
        Step(GKICK, 0.5, u=value)
    assert Step(DRIFT, Fraction(1, 10**400)).c > 0  # rounds to 0.0, fine


def test_consistency_sums_enforced():
    with pytest.raises(SchemeError, match="kick coefficients sum to 0.9"):
        Scheme("bad", (Step(DRIFT, 1), Step(KICK, 0.9)), 1, 1)
    with pytest.raises(SchemeError, match="drift coefficients sum"):
        Scheme("bad", (Step(DRIFT, 0.5), Step(KICK, 1)), 1, 1)


_DK = (Step(DRIFT, 1), Step(KICK, 1))
_DG = (Step(DRIFT, 1), Step(GKICK, 1, 0.1))


@pytest.mark.parametrize("build, message", [
    (lambda: Step("drip", 1.0), "unknown step kind 'drip'"),
    (lambda: Step(DRIFT, float("nan")),
     "coefficient c must be finite and within float range"),
    (lambda: Step(kind=KICK, c=10**400),
     "coefficient c must be finite and within float range"),
    (lambda: Step(GKICK, 0.5),
     "gkick step needs a gradient coefficient u that is finite and within "
     "float range"),
    (lambda: Step(GKICK, 0.5, float("inf")),
     "gkick step needs a gradient coefficient u that is finite and within "
     "float range"),
    (lambda: Step(KICK, 0.5, 0.1), "kick step must not carry a gradient coefficient"),
    (lambda: Step(DRIFT, 1, u=0), "drift step must not carry a gradient coefficient"),
    (lambda: Scheme("bad", [], 1, 1), "scheme needs at least one step"),
    (lambda: Scheme("bad", _DK, 0, 1), "declared order must be positive"),
    (lambda: Scheme("bad", _DK, order=1, force_evals=0),
     "force_evals must be positive"),
    (lambda: Scheme("bad", (Step(DRIFT, 1), Step(KICK, 0.9)), 1, 1),
     "kick coefficients sum to 0.9, expected 1"),
    (lambda: Scheme(name="bad", steps=[Step(DRIFT, 0.5), Step(GKICK, 1, 0.1)],
                    order=1, force_evals=1),
     "drift coefficients sum to 0.5, expected 1"),
    (lambda: Scheme("bad", _DK, 2.0, 1), "order must be an integer, got 2.0"),
    (lambda: Scheme("bad", _DK, 1, True),
     "force_evals must be an integer, got True"),
    (lambda: Scheme(None, _DK, 1, 1), "name must be a string, got None"),
    # Tr M/2 of degree d cannot match cos x beyond x^d: drifts and kicks add
    # one to d, a gkick three; the consistency sums are checked first
    (lambda: Scheme("bad", _DK, 3, 1),
     "declared order 3 exceeds 2, the degree of the one-step map in x"),
    (lambda: Scheme("bad", _DG, 5, 2),
     "declared order 5 exceeds 4, the degree of the one-step map in x"),
    (lambda: get_scheme("FR")._replace(order=10**9),
     "declared order 1000000000 exceeds 7, the degree of the one-step map in x"),
    (lambda: Scheme("bad", (Step(DRIFT, 1), Step(KICK, 0.9)), 10**9, 1),
     "kick coefficients sum to 0.9, expected 1"),
    (lambda: Step(DRIFT, True),
     "coefficient c must be finite and within float range"),
    # rebuilding a record through its class, _make or _replace runs the
    # checks again
    (lambda: Scheme(**{**get_scheme("SV")._asdict(), "steps": _DK[:1]}),
     "kick coefficients sum to 0.0, expected 1"),
    (lambda: get_scheme("SV")._replace(order=0, steps=()),
     "scheme needs at least one step"),
    (lambda: Step._make(("drip", 1.0)), "unknown step kind 'drip'"),
    (lambda: get_scheme("SV").steps[0]._replace(u=0.1),
     "kick step must not carry a gradient coefficient"),
])
def test_step_and_scheme_reject_bad_fields_with_their_messages(build, message):
    with pytest.raises(SchemeError) as info:
        build()
    assert str(info.value) == message


def test_declared_order_may_reach_the_degree_of_the_map():
    assert Scheme("dk", _DK, 2, 1).order == 2
    assert Scheme("dg", _DG, 4, 2).order == 4


def test_scheme_stores_its_steps_as_a_tuple():
    s = Scheme("list", list(_DK), 1, 1)
    assert s.steps == _DK and type(s.steps) is tuple
    # equal steps hash alike whatever the coefficient type, as their fields do
    assert Step(KICK, 0.5) == Step(KICK, Fraction(1, 2))
    assert hash(Step(KICK, 0.5)) == hash((KICK, Fraction(1, 2), None))


def test_records_are_immutable():
    sv = get_scheme("SV")
    m = phasemap.scheme_matrix(sv, 0.5, 1.0)
    study = analysis.convergence_study(sv, 0.5, 4)
    records = [sv.steps[0], sv, m, phasemap.spectral(m), study.rows[0], study,
               analysis.analyze(sv, 4), sim.iterate(sv, 1.0, 0.0, 0.5, 1.0, 4)]
    assert [type(r).__name__ for r in records] == [
        "Step", "Scheme", "PhaseMatrix", "SpectralData", "ConvergenceRow",
        "ConvergenceStudy", "PhaseErrorReport", "TrajectoryRecord"]
    for r in records:
        for field in r._fields:
            with pytest.raises(AttributeError):
                setattr(r, field, None)
        with pytest.raises(AttributeError):
            r.extra = None


#: Each record's home module, fields and defaults, and an instance built by
#: the code that returns it.
_SHAPES = {
    "Step": (schemes, "kind c u", {"u": None},
             lambda sv: sv.steps[0]),
    "Scheme": (schemes, "name steps order force_evals citation",
               {"citation": ""}, lambda sv: sv),
    "PhaseMatrix": (phasemap, "g tau nu h eps omega", {},
                    lambda sv: phasemap.scheme_matrix(sv, 0.5, 1.0)),
    "SpectralData": (phasemap, "theta xi omega_a m_star k_star regime detail",
                     {"detail": ""}, lambda sv: phasemap.spectral(
                         phasemap.scheme_matrix(sv, 0.5, 1.0))),
    "StabilityLimit": (analysis, "x_max bounded", {},
                       analysis.stability_limit),
    "ConvergenceRow": (analysis, "order partial_sum abs_error", {},
                       lambda sv: analysis.convergence_study(sv, 0.5, 4).rows[0]),
    "ConvergenceStudy": (analysis, "scheme x closed_form rows radius_estimate",
                         {}, lambda sv: analysis.convergence_study(sv, 0.5, 4)),
    "PhaseErrorReport": (analysis, "scheme order_declared n c_n c_star "
                         "stability omega_a inv_mass k_star sigma", {},
                         lambda sv: analysis.analyze(sv, 4)),
    "TrajectoryRecord": (sim, "step_index t q p energy", {},
                         lambda sv: sim.iterate(sv, 1.0, 0.0, 0.5, 1.0, 4)),
}


@pytest.mark.parametrize("name", _SHAPES)
def test_record_keeps_its_fields_defaults_and_tuple_layout(name):
    module, fields, defaults, build = _SHAPES[name]
    cls = getattr(module, name)
    assert cls._fields == tuple(fields.split())
    assert cls._field_defaults == defaults
    record = build(get_scheme("SV"))
    assert type(record) is cls and isinstance(record, tuple)
    assert not hasattr(record, "__dict__")
    assert name in module.__all__
    assert getattr(oscmap, name, cls) is cls


# ------------------------------------------------------------- symmetry

#: Reversibility of each registry scheme, by its step list: every one but
#: the two first-order maps is a palindrome.
_REVERSIBLE = {"SV": True, "LF1": False, "LF1T": False, "FR": True,
               "C": True, "M": True, "BM": True}


def test_is_symmetric_examples():
    assert {s.name: is_symmetric(s) for s in registry()} == _REVERSIBLE


def _steps(*spec):
    """Steps from (kind, c) and (GKICK, c, u) tuples, c and u as Fractions."""
    return tuple(Step(k, *(Fraction(v) for v in rest)) for k, *rest in spec)


#: Schemes whose merged runs decide reversibility where the raw step list
#: does not, and one that is not reversible at all, each with its verdict.
_RUN_CASES = [
    # SV with its drift split unevenly: the map is exactly SV's
    (Scheme("split-drift SV", _steps((KICK, "1/2"), (DRIFT, "1/4"),
                                    (DRIFT, "3/4"), (KICK, "1/2")),
            order=2, force_evals=1), True),
    # a drift and its negative cancel, and the kicks around them merge
    (Scheme("cancelling drifts", _steps((KICK, "1/4"), (DRIFT, "1/3"),
                                        (DRIFT, "-1/3"), (KICK, "1/4"),
                                        (DRIFT, 1), (KICK, "1/2")),
            order=2, force_evals=2), True),
    # C with its middle gkick split into a kick and a gkick
    (Scheme("C split gkick", _steps((DRIFT, "1/6"), (KICK, "3/8"),
                                    (DRIFT, "1/3"), (KICK, "1/8"),
                                    (GKICK, "1/8", "-1/96"), (DRIFT, "1/3"),
                                    (KICK, "3/8"), (DRIFT, "1/6")),
            order=4, force_evals=5), True),
    (Scheme("D1/4 K D3/4", _steps((DRIFT, "1/4"), (KICK, 1), (DRIFT, "3/4")),
            order=1, force_evals=1), False),
]


@pytest.mark.parametrize("s, reversible", [
    pytest.param(s, v, id=s.name)
    for s, v in [*((s, _REVERSIBLE[s.name]) for s in registry()), *_RUN_CASES]
])
def test_is_symmetric_iff_the_exact_map_has_g_equal_h(s, reversible):
    # the verdicts are read off the merged runs by hand, not off the map
    g, _, _, h = phasemap._polynomials(s)
    assert is_symmetric(s) == (g.coeffs == h.coeffs) == reversible


def _random_run_scheme(rng, palindrome):
    """A scheme from random canonical runs and its expected reversibility.

    Canonical runs alternate q-shears c*x and p-shears c*x + u*x^3, c
    nonzero. Each run is then written as one step or split in two of its
    kind, a float piece and a Fraction rest, with gkicks among the p-shears,
    and identity steps go in anywhere. The expectation is read off the
    canonical runs alone.
    """
    def coeff():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 12),
                        rng.randint(1, 7))

    kinds = [DRIFT, KICK] if rng.random() < 0.5 else [KICK, DRIFT]
    half = rng.randint(1, 4)
    runs = [(kind, coeff(),
             coeff() if kind == KICK and rng.random() < 0.3 else 0)
            for kind in (kinds[i % 2] for i in range(2 * half + 1))]
    if palindrome:  # an odd number of runs, mirrored about the middle one
        runs = runs[:half + 1] + runs[:half][::-1]
        if rng.random() < 0.3:  # one run off by a little
            k = rng.randrange(len(runs))
            kind, c, u = runs[k]
            runs[k] = (kind, c + Fraction(1, 64), u)
    elif rng.random() < 0.5:  # an even number of runs
        runs.pop()
    # scale each kind to sum to 1: a bijection that keeps palindromes
    total = {kind: sum(c for k, c, _ in runs if k == kind)
             for kind in (DRIFT, KICK)}
    if not all(total.values()):
        return None
    runs = [(k, c / total[k], u) for k, c, u in runs]
    expected = runs == runs[::-1]
    steps = []
    for kind, c, u in runs:
        pieces = [(c, u)]
        if rng.random() < 0.5:
            a = rng.randint(-8, 8) / 8
            b = rng.choice([0, u])
            pieces = [(a, b), (c - Fraction(a), u - b)]
        for pc, pu in pieces:
            gk = kind == KICK and (pu or rng.random() < 0.3)
            steps.append(Step(GKICK, pc, pu) if gk else Step(kind, pc))
            if rng.random() < 0.3:
                steps.append(rng.choice([Step(DRIFT, 0), Step(KICK, 0.0),
                                         Step(GKICK, 0, Fraction(0))]))
    return Scheme("random runs", steps, order=1, force_evals=1), expected


@pytest.mark.parametrize("seed", range(4))
def test_is_symmetric_reads_random_merged_runs(seed):
    import random

    rng = random.Random(seed)
    verdicts = []
    for i in range(150):
        built = _random_run_scheme(rng, palindrome=i % 2 == 0)
        if built is not None:
            s, expected = built
            assert is_symmetric(s) is expected, s.steps
            verdicts.append(expected)
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 30


def test_is_symmetric_of_a_map_beyond_float_range_raises():
    # every reader of the exact map raises here, the CLI before it asks
    steps = [Step(k, c) for c in (1e200, -1e200, 1) for k in (DRIFT, KICK)]
    huge = Scheme("huge", steps, order=1, force_evals=3)
    with pytest.raises(SchemeError, match="'huge'.*beyond float range"):
        is_symmetric(huge)


def test_is_symmetric_ignores_identity_steps():
    padded = Scheme(
        "padded-sv",
        (Step(DRIFT, 0), Step(KICK, Fraction(1, 2)), Step(DRIFT, 1),
         Step(KICK, Fraction(1, 2))),
        order=2, force_evals=1,
    )
    assert is_symmetric(padded)


@pytest.mark.parametrize("seed", range(4))
def test_adjoint_inverts_under_negative_timestep(seed):
    # M(adjoint(s), -eps) @ M(s, eps) = identity, brute-force matrix check;
    # the adjoint is the scheme with its step list reversed
    import random

    rng = random.Random(seed)
    steps = []
    drifts = [rng.uniform(-1, 1) for _ in range(3)]
    kicks = [rng.uniform(-1, 1) for _ in range(3)]
    drifts[-1] = 1 - sum(drifts[:-1])
    kicks[-1] = 1 - sum(kicks[:-1])
    for d, k in zip(drifts, kicks):
        steps.append(Step(DRIFT, d))
        steps.append(Step(KICK, k))
    s = Scheme("random", tuple(steps), order=1, force_evals=3)
    eps = 0.37
    m_fwd = phasemap.scheme_matrix(s, eps, 1.0)
    adjoint = Scheme(**{**s._asdict(), "steps": tuple(reversed(s.steps))})
    m_back = phasemap.scheme_matrix(adjoint, -eps, 1.0)
    # rows of m_back times m_fwd, each as [[g, tau], [-nu, h]]
    (a, b), (c, d) = ((m_back.g, m_back.tau), (-m_back.nu, m_back.h))
    (e, f), (g, h) = ((m_fwd.g, m_fwd.tau), (-m_fwd.nu, m_fwd.h))
    assert abs(a * e + b * g - 1) <= 1e-12
    assert abs(c * f + d * h - 1) <= 1e-12
    assert abs(a * f + b * h) <= 1e-12
    assert abs(c * e + d * g) <= 1e-12


# ------------------------------------------------------------- file I/O

def _file_dict(s):
    """The coefficient-file form of s, every coefficient written as a float."""
    steps = [{"kind": st.kind, "c": float(st.c)} for st in s.steps]
    for d, st in zip(steps, s.steps):
        if st.kind == GKICK:
            d["u"] = float(st.u)
    return {"name": s.name, "order": s.order, "force_evals": s.force_evals,
            "citation": s.citation, "steps": steps}


def test_sv_round_trips(tmp_path):
    sv = get_scheme("SV")
    path = tmp_path / "sv.json"
    path.write_text(json.dumps(_file_dict(sv)))
    loaded = load_scheme(str(path))
    assert loaded == sv  # Fraction(1,2) == 0.5 coefficient-wise


def test_load_bad_kick_sum(tmp_path):
    obj = _file_dict(get_scheme("SV"))
    obj["steps"][0]["c"] = 0.4
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(SchemeFileError, match="kick coefficients sum to 0.9"):
        load_scheme(str(path))


def test_load_unknown_kind(tmp_path):
    obj = _file_dict(get_scheme("SV"))
    obj["steps"][1]["kind"] = "slide"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(SchemeFileError, match="step 1: unknown step kind"):
        load_scheme(str(path))


_SV_STEPS = [{"kind": "kick", "c": 0.5}, {"kind": "drift", "c": 1},
             {"kind": "kick", "c": 0.5}]


@pytest.mark.parametrize("index, item, message", [
    (0, 5, "expected an object"),
    (1, {"c": 1}, "unknown step kind None"),
    (1, {"kind": "drift", "c": "1"},
     "coefficient c must be finite and within float range"),
    (1, {"kind": "drift", "c": True},
     "coefficient c must be finite and within float range"),
    (1, {"kind": "drift", "c": None},
     "coefficient c must be finite and within float range"),
    (2, {"kind": "gkick", "c": 0.5},
     "gkick step needs a gradient coefficient u that is finite and within "
     "float range"),
    (2, {"kind": "gkick", "c": 0.5, "u": True},
     "gkick step needs a gradient coefficient u that is finite and within "
     "float range"),
    (0, {"kind": "kick", "c": 0.5, "u": 0.1},
     "kick step must not carry a gradient coefficient"),
])
def test_load_bad_step_gives_the_step_message(index, item, message, tmp_path):
    steps = list(_SV_STEPS)
    steps[index] = item
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "bad", "order": 2, "force_evals": 1,
                                "steps": steps}))
    with pytest.raises(SchemeFileError) as info:
        load_scheme(str(path))
    assert str(info.value) == f"{path}: step {index}: {message}"


def test_load_missing_file():
    with pytest.raises(SchemeFileError, match="not found"):
        load_scheme("/nonexistent/never.json")


def test_load_directory_is_a_file_error(tmp_path):
    with pytest.raises(SchemeFileError, match="cannot read scheme file"):
        load_scheme(str(tmp_path))


def test_load_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemeFileError, match="invalid JSON"):
        load_scheme(str(path))


def test_gkick_file_round_trip(tmp_path):
    # decimal JSON cannot hold 1/6 exactly, so compare within float rounding
    c = get_scheme("C")
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_file_dict(c)))
    loaded = load_scheme(str(path))
    assert loaded.name == c.name and loaded.force_evals == c.force_evals
    assert loaded.steps[3].kind == GKICK
    for got, ref in zip(loaded.steps, c.steps):
        assert got.kind == ref.kind
        assert abs(got.c - ref.c) <= 1e-16
        if ref.kind == GKICK:
            assert abs(got.u - ref.u) <= 1e-16

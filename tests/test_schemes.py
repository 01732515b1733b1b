"""Tests for scheme construction, registry, symmetry, and file I/O."""

import json
from fractions import Fraction

import pytest

from oscmap import phasemap
from oscmap.schemes import (
    DRIFT, GKICK, KICK, Scheme, SchemeError, SchemeFileError, Step,
    adjoint, get_scheme, has_exact_coefficients, is_symmetric, load_scheme,
    registry, registry_names,
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


def test_consistency_sums_enforced():
    with pytest.raises(SchemeError, match="kick coefficients sum to 0.9"):
        Scheme("bad", (Step(DRIFT, 1), Step(KICK, 0.9)), 1, 1)
    with pytest.raises(SchemeError, match="drift coefficients sum"):
        Scheme("bad", (Step(DRIFT, 0.5), Step(KICK, 1)), 1, 1)


# ------------------------------------------------------------- symmetry

def test_is_symmetric_examples():
    assert is_symmetric(get_scheme("SV"))
    assert not is_symmetric(get_scheme("LF1"))
    assert is_symmetric(get_scheme("FR"))
    assert is_symmetric(get_scheme("C"))
    assert is_symmetric(get_scheme("M"))
    assert is_symmetric(get_scheme("BM"))


def test_is_symmetric_ignores_identity_steps():
    padded = Scheme(
        "padded-sv",
        (Step(DRIFT, 0), Step(KICK, Fraction(1, 2)), Step(DRIFT, 1),
         Step(KICK, Fraction(1, 2))),
        order=2, force_evals=1,
    )
    assert is_symmetric(padded)


def test_adjoint_palindrome_fixed_point():
    sv = get_scheme("SV")
    assert adjoint(sv) == sv


def test_adjoint_reverses():
    lf1 = get_scheme("LF1")
    rev = adjoint(lf1)
    assert [st.kind for st in rev.steps] == [KICK, DRIFT]
    assert adjoint(rev) == lf1


@pytest.mark.parametrize("seed", range(4))
def test_adjoint_inverts_under_negative_timestep(seed):
    # M(adjoint(s), -eps) @ M(s, eps) = identity, brute-force matrix check
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
    m_back = phasemap.scheme_matrix(adjoint(s), -eps, 1.0)
    prod = m_back @ m_fwd
    assert abs(prod.g - 1) <= 1e-12
    assert abs(prod.h - 1) <= 1e-12
    assert abs(prod.tau) <= 1e-12
    assert abs(prod.nu) <= 1e-12


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


def test_data_dir_override(tmp_path, monkeypatch):
    monkeypatch.setenv("OSCMAP_DATA_DIR", str(tmp_path))
    with pytest.raises(SchemeFileError, match="not found"):
        get_scheme("M")
    monkeypatch.delenv("OSCMAP_DATA_DIR")
    assert get_scheme("M").force_evals == 4


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

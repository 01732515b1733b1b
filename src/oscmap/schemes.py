"""Factorization schemes: ordered kick/drift step lists, registry, file loading.

A scheme is a palindromic-or-not sequence of elementary updates applied to the
oscillator phase point in list order:

* drift  c: q -> q + c*eps*p
* kick   c: p -> p - c*eps*omega^2 * q
* gkick  c, u: p -> p - (c*eps*omega^2 + u*eps^3*omega^4) * q  (force-gradient kick)

First-order consistency requires the drift coefficients and the kick
coefficients each to sum to 1.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "DRIFT", "KICK", "GKICK", "Step", "Scheme",
    "SchemeError", "SchemeFileError",
    "is_symmetric", "has_exact_coefficients",
    "registry", "registry_names", "get_scheme", "load_scheme", "DATA_DIR_ENV",
]

DRIFT = "drift"
KICK = "kick"
GKICK = "gkick"
_KINDS = (DRIFT, KICK, GKICK)

CONSISTENCY_TOL = 1e-12

#: Environment variable overriding the directory that holds the coefficient
#: files for the data-backed registry schemes (M, BM).
DATA_DIR_ENV = "OSCMAP_DATA_DIR"

_DATA_FILES = {"M": "mclachlan4.json", "BM": "blanes_moan6.json"}


class SchemeError(ValueError):
    """Invalid scheme definition."""


class SchemeFileError(SchemeError):
    """Scheme coefficient file missing or malformed."""


def _finite(v) -> bool:
    """True for a finite float, or an int (not bool) or Fraction in float range."""
    if isinstance(v, float):
        return math.isfinite(v)
    if not isinstance(v, (int, Fraction)) or isinstance(v, bool):
        return False
    try:
        float(v)
    except OverflowError:
        return False
    return True


# A NamedTuple body cannot define __new__, so each validated record keeps its
# fields in a NamedTuple base and checks them in a subclass's __new__. The
# records are tuples: immutable, and hashed and compared as their fields.
# _make builds through the class, and _replace through _make, so every way of
# building a record runs the checks.
class _StepFields(NamedTuple):
    kind: str
    c: float | Fraction
    u: float | Fraction | None = None


class Step(_StepFields):
    """One elementary factor: kind, timestep fraction c, gradient weight u."""

    __slots__ = ()

    def __new__(cls, kind: str, c: float | Fraction,
                u: float | Fraction | None = None):
        if kind not in _KINDS:
            raise SchemeError(f"unknown step kind {kind!r}")
        if not _finite(c):
            raise SchemeError("coefficient c must be finite and within float range")
        if kind == GKICK:
            if u is None or not _finite(u):
                raise SchemeError("gkick step needs a gradient coefficient u "
                                  "that is finite and within float range")
        elif u is not None:
            raise SchemeError(f"{kind} step must not carry a gradient coefficient")
        return super().__new__(cls, kind, c, u)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def is_zero(self) -> bool:
        """True for steps that are the identity map."""
        return self.c == 0 and (self.u is None or self.u == 0)


class _SchemeFields(NamedTuple):
    name: str
    steps: tuple[Step, ...]
    order: int
    force_evals: int
    citation: str = ""


class Scheme(_SchemeFields):
    """An ordered factorization with declared order and cost metadata."""

    __slots__ = ()

    def __new__(cls, name: str, steps, order: int, force_evals: int,
                citation: str = ""):
        steps = tuple(steps)
        for key, v in (("order", order), ("force_evals", force_evals)):
            if not isinstance(v, int) or isinstance(v, bool):
                raise SchemeError(f"{key} must be an integer, got {v!r}")
        for key, v in (("name", name), ("citation", citation)):
            if not isinstance(v, str):
                raise SchemeError(f"{key} must be a string, got {v!r}")
        if not steps:
            raise SchemeError("scheme needs at least one step")
        if order < 1:
            raise SchemeError("declared order must be positive")
        if force_evals < 1:
            raise SchemeError("force_evals must be positive")
        drift_sum = sum(s.c for s in steps if s.kind == DRIFT)
        kick_sum = sum(s.c for s in steps if s.kind in (KICK, GKICK))
        if abs(drift_sum - 1) > CONSISTENCY_TOL:
            raise SchemeError(
                f"drift coefficients sum to {float(drift_sum)!r}, expected 1"
            )
        if abs(kick_sum - 1) > CONSISTENCY_TOL:
            raise SchemeError(
                f"kick coefficients sum to {float(kick_sum)!r}, expected 1"
            )
        # Tr M/2 is a polynomial of at most this degree and no even Taylor
        # coefficient of cos x is 0, so no larger order can be reached
        degree = sum(3 if s.kind == GKICK else 1 for s in steps)
        if order > degree:
            raise SchemeError(f"declared order {order} exceeds {degree}, the "
                              "degree of the one-step map in x")
        return super().__new__(cls, name, steps, order, force_evals, citation)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def active_steps(self) -> tuple[Step, ...]:
        """Steps with zero-coefficient (identity) entries dropped."""
        return tuple(s for s in self.steps if not s.is_zero())


def is_symmetric(s: Scheme) -> bool:
    """True iff the scheme is time-reversible: its exact map has g = h.

    Write A* for A with its diagonal swapped. Then (AB)* = B*A*, and each
    shear is its own *, so the reversed step list has the map M*: M with g
    and h swapped. Merged into runs, with adjacent drifts one q-shear,
    adjacent kicks and gkicks one p-shear and runs that sum to zero dropped,
    a step list alternates q- and p-shears whose coefficients are nonzero
    polynomials in x with no constant term. The entries of such a product
    have degree equal to the sum of the shears' degrees, so two different
    merged words never give the same map. Hence g = h exactly iff the merged
    runs read the same both ways. A map beyond float range raises
    SchemeError, as every reader of the map does.
    """
    # phasemap imports this module, so the map is imported at call time
    from .phasemap import _polynomials

    g, _, _, h = _polynomials(s, True)
    return g == h


def has_exact_coefficients(s: Scheme) -> bool:
    """True iff every coefficient is an int or Fraction (exact series mode)."""
    return all(
        isinstance(st.c, (int, Fraction))
        and (st.u is None or isinstance(st.u, (int, Fraction)))
        for st in s.steps
    )


# ---------------------------------------------------------------------- I/O

def _scheme_from_dict(obj: dict, where: str) -> Scheme:
    if not isinstance(obj, dict):
        raise SchemeFileError(f"{where}: expected a JSON object")
    for key in ("name", "order", "force_evals", "steps"):
        if key not in obj:
            raise SchemeFileError(f"{where}: missing required key {key!r}")
    if not isinstance(obj["steps"], list) or not obj["steps"]:
        raise SchemeFileError(f"{where}: steps must be a non-empty array")
    steps = []
    for i, item in enumerate(obj["steps"]):
        if not isinstance(item, dict):
            raise SchemeFileError(f"{where}: step {i}: expected an object")
        try:
            steps.append(Step(item.get("kind"), item.get("c"), item.get("u")))
        except SchemeError as exc:
            raise SchemeFileError(f"{where}: step {i}: {exc}") from exc
    try:
        return Scheme(obj["name"], steps, obj["order"], obj["force_evals"],
                      obj.get("citation", ""))
    except SchemeError as exc:
        raise SchemeFileError(f"{where}: {exc}") from exc


def load_scheme(path: str) -> Scheme:
    """Load a scheme from a JSON coefficient file.

    The format is ``{"name", "order", "force_evals", "citation", "steps":
    [{"kind": "drift"|"kick"|"gkick", "c": number, "u": number (gkick only)}]}``
    with plain decimal numbers (no expression evaluation).
    """
    import json  # only file and data-backed schemes need it
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise SchemeFileError(f"scheme file not found: {path}") from exc
    except OSError as exc:
        raise SchemeFileError(f"cannot read scheme file {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise SchemeFileError(f"{path}: invalid JSON: {exc}") from exc
    return _scheme_from_dict(obj, str(path))


# ------------------------------------------------------------------ registry

def _sv() -> Scheme:
    half = Fraction(1, 2)
    return Scheme(
        "SV",
        (Step(KICK, half), Step(DRIFT, 1), Step(KICK, half)),
        order=2,
        force_evals=1,
        citation="Stoermer/Verlet leapfrog",
    )


def _lf1() -> Scheme:
    return Scheme(
        "LF1",
        (Step(DRIFT, 1), Step(KICK, 1)),
        order=1,
        force_evals=1,
        citation="first-order drift-then-kick map (non-reversible)",
    )


def _lf1t() -> Scheme:
    return Scheme(
        "LF1T",
        (Step(KICK, 1), Step(DRIFT, 1)),
        order=1,
        force_evals=1,
        citation="first-order kick-then-drift map (transpose of LF1)",
    )


def _fr() -> Scheme:
    theta = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    return Scheme(
        "FR",
        (
            Step(DRIFT, theta / 2), Step(KICK, theta),
            Step(DRIFT, (1 - theta) / 2), Step(KICK, 1 - 2 * theta),
            Step(DRIFT, (1 - theta) / 2), Step(KICK, theta),
            Step(DRIFT, theta / 2),
        ),
        order=4,
        force_evals=3,
        citation="Forest and Ruth (1990); coefficients after Creutz-Gocksch/Yoshida",
    )


def _c() -> Scheme:
    return Scheme(
        "C",
        (
            Step(DRIFT, Fraction(1, 6)), Step(KICK, Fraction(3, 8)),
            Step(DRIFT, Fraction(1, 3)),
            Step(GKICK, Fraction(1, 4), Fraction(-1, 96)),
            Step(DRIFT, Fraction(1, 3)), Step(KICK, Fraction(3, 8)),
            Step(DRIFT, Fraction(1, 6)),
        ),
        order=4,
        force_evals=4,
        citation="Chin forward force-gradient algorithm (4C form), "
                 "3 force + 1 gradient evaluation",
    )


_BUILTINS = {"SV": _sv, "LF1": _lf1, "LF1T": _lf1t, "FR": _fr, "C": _c}

#: Fixed registry listing order (also the CLI output order).
REGISTRY_ORDER = ("SV", "LF1", "LF1T", "FR", "C", "M", "BM")


def registry_names() -> tuple[str, ...]:
    return REGISTRY_ORDER


def _data_dir() -> str:
    return (os.environ.get(DATA_DIR_ENV)
            or os.path.join(os.path.dirname(__file__), "data"))


def get_scheme(name: str) -> Scheme:
    """Look up a registry scheme by name; data-backed entries load from disk."""
    if name in _BUILTINS:
        return _BUILTINS[name]()
    if name in _DATA_FILES:
        path = os.path.join(_data_dir(), _DATA_FILES[name])
        scheme = load_scheme(path)
        if scheme.name != name:
            raise SchemeFileError(
                f"{path}: declares scheme {scheme.name!r}, expected {name!r}"
            )
        return scheme
    raise SchemeError(
        f"unknown scheme {name!r}; registry has {', '.join(REGISTRY_ORDER)}"
    )


def registry() -> list[Scheme]:
    """All registry schemes; raises SchemeFileError if M/BM files are bad."""
    return [get_scheme(name) for name in REGISTRY_ORDER]

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

import json
import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources

__all__ = [
    "DRIFT", "KICK", "GKICK", "Step", "Scheme",
    "SchemeError", "SchemeFileError",
    "is_symmetric", "adjoint", "has_exact_coefficients",
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
    if isinstance(v, float):
        return math.isfinite(v)
    return isinstance(v, (int, Fraction))


@dataclass(frozen=True)
class Step:
    """One elementary factor: kind, timestep fraction c, gradient weight u."""

    kind: str
    c: float | Fraction
    u: float | Fraction | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SchemeError(f"unknown step kind {self.kind!r}")
        if not _finite(self.c):
            raise SchemeError(f"non-finite coefficient {self.c!r}")
        if self.kind == GKICK:
            if self.u is None or not _finite(self.u):
                raise SchemeError("gkick step needs a finite gradient coefficient u")
        elif self.u is not None:
            raise SchemeError(f"{self.kind} step must not carry a gradient coefficient")

    def is_zero(self) -> bool:
        """True for steps that are the identity map."""
        return self.c == 0 and (self.u is None or self.u == 0)


@dataclass(frozen=True)
class Scheme:
    """An ordered factorization with declared order and cost metadata."""

    name: str
    steps: tuple[Step, ...]
    order: int
    force_evals: int
    citation: str = ""

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise SchemeError("scheme needs at least one step")
        if self.order < 1:
            raise SchemeError("declared order must be positive")
        if self.force_evals < 1:
            raise SchemeError("force_evals must be positive")
        drift_sum = sum(s.c for s in self.steps if s.kind == DRIFT)
        kick_sum = sum(s.c for s in self.steps if s.kind in (KICK, GKICK))
        if abs(drift_sum - 1) > CONSISTENCY_TOL:
            raise SchemeError(
                f"drift coefficients sum to {float(drift_sum)!r}, expected 1"
            )
        if abs(kick_sum - 1) > CONSISTENCY_TOL:
            raise SchemeError(
                f"kick coefficients sum to {float(kick_sum)!r}, expected 1"
            )

    def active_steps(self) -> tuple[Step, ...]:
        """Steps with zero-coefficient (identity) entries dropped."""
        return tuple(s for s in self.steps if not s.is_zero())


def is_symmetric(s: Scheme) -> bool:
    """True iff the step sequence is palindromic, ignoring identity steps."""
    active = s.active_steps()
    return all(
        a.kind == b.kind and a.c == b.c and _u_equal(a.u, b.u)
        for a, b in zip(active, reversed(active))
    )


def _u_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a == b


def adjoint(s: Scheme) -> Scheme:
    """The scheme with its step list reversed."""
    return replace(s, steps=tuple(reversed(s.steps)))


def has_exact_coefficients(s: Scheme) -> bool:
    """True iff every coefficient is an int or Fraction (exact series mode)."""
    return all(
        isinstance(st.c, (int, Fraction))
        and (st.u is None or isinstance(st.u, (int, Fraction)))
        for st in s.steps
    )


# ---------------------------------------------------------------------- I/O

def _steps_from_list(raw, where: str) -> tuple[Step, ...]:
    steps = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise SchemeFileError(f"{where}: step {i}: expected an object")
        kind = item.get("kind")
        if kind not in _KINDS:
            raise SchemeFileError(f"{where}: step {i}: unknown step kind {kind!r}")
        c = item.get("c")
        if not isinstance(c, (int, float)) or isinstance(c, bool):
            raise SchemeFileError(f"{where}: step {i}: coefficient c must be a number")
        u = item.get("u")
        if kind == GKICK:
            if not isinstance(u, (int, float)) or isinstance(u, bool):
                raise SchemeFileError(
                    f"{where}: step {i}: gkick needs a numeric gradient coefficient u"
                )
        elif u is not None:
            raise SchemeFileError(
                f"{where}: step {i}: u is only valid for gkick steps"
            )
        try:
            steps.append(Step(kind, c, u if kind == GKICK else None))
        except SchemeError as exc:
            raise SchemeFileError(f"{where}: step {i}: {exc}") from exc
    return tuple(steps)


def _scheme_from_dict(obj: dict, where: str) -> Scheme:
    if not isinstance(obj, dict):
        raise SchemeFileError(f"{where}: expected a JSON object")
    for key in ("name", "order", "force_evals", "steps"):
        if key not in obj:
            raise SchemeFileError(f"{where}: missing required key {key!r}")
    if not isinstance(obj["steps"], list) or not obj["steps"]:
        raise SchemeFileError(f"{where}: steps must be a non-empty array")
    steps = _steps_from_list(obj["steps"], where)
    for key in ("order", "force_evals"):
        v = obj[key]
        if not isinstance(v, int) or isinstance(v, bool):
            raise SchemeFileError(f"{where}: {key} must be an integer, got {v!r}")
    try:
        return Scheme(
            name=str(obj["name"]),
            steps=steps,
            order=obj["order"],
            force_evals=obj["force_evals"],
            citation=str(obj.get("citation", "")),
        )
    except SchemeError as exc:
        raise SchemeFileError(f"{where}: {exc}") from exc


def load_scheme(path: str) -> Scheme:
    """Load a scheme from a JSON coefficient file.

    The format is ``{"name", "order", "force_evals", "citation", "steps":
    [{"kind": "drift"|"kick"|"gkick", "c": number, "u": number (gkick only)}]}``
    with plain decimal numbers (no expression evaluation).
    """
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


def _data_dir(data_dir: str | None) -> str:
    if data_dir is not None:
        return data_dir
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return env
    return str(resources.files(__package__).joinpath("data"))


def get_scheme(name: str, data_dir: str | None = None) -> Scheme:
    """Look up a registry scheme by name; data-backed entries load from disk."""
    if name in _BUILTINS:
        return _BUILTINS[name]()
    if name in _DATA_FILES:
        path = os.path.join(_data_dir(data_dir), _DATA_FILES[name])
        scheme = load_scheme(path)
        if scheme.name != name:
            raise SchemeFileError(
                f"{path}: declares scheme {scheme.name!r}, expected {name!r}"
            )
        return scheme
    raise SchemeError(
        f"unknown scheme {name!r}; registry has {', '.join(REGISTRY_ORDER)}"
    )


def registry(data_dir: str | None = None) -> list[Scheme]:
    """All registry schemes; raises SchemeFileError if M/BM files are bad."""
    return [get_scheme(name, data_dir) for name in REGISTRY_ORDER]

"""Factorization schemes: ordered kick/drift step lists, registry, file loading.

A scheme is a palindromic-or-not sequence of elementary updates applied to the
oscillator phase point in list order:

* drift  c: q -> q + c*eps*p
* kick   c: p -> p - c*eps*omega^2 * q
* gkick  c, u: p -> p - (c*eps*omega^2 + u*eps^3*omega^4) * q  (force-gradient kick)

First-order consistency requires the drift coefficients and the kick
coefficients each to sum to 1.

The registry is one table, `_REGISTRY`, with a row per scheme; a palindrome
is written as its first half. Any other scheme is read from a JSON file
(`load_scheme`, whose reader, `schemefile`, loads only when called).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

__all__ = [
    "DRIFT", "KICK", "GKICK", "Step", "Scheme",
    "SchemeError", "SchemeFileError",
    "is_symmetric", "has_exact_coefficients",
    "registry", "registry_names", "get_scheme", "load_scheme",
]

DRIFT = "drift"
KICK = "kick"
GKICK = "gkick"
_KINDS = (DRIFT, KICK, GKICK)

CONSISTENCY_TOL = 1e-12


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


class Step(namedtuple("Step", "kind c u", defaults=(None,))):
    """One elementary factor: kind, timestep fraction c, gradient weight u.

    u is None except on a gkick step. Records are tuples: immutable, and
    hashed and compared as their fields.
    """

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

    # namedtuple's _make skips __new__, and _replace calls _make: both check
    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def is_zero(self) -> bool:
        """True for steps that are the identity map."""
        return self.c == 0 and (self.u is None or self.u == 0)


class Scheme(namedtuple("Scheme", "name steps order force_evals citation",
                        defaults=("",))):
    """An ordered factorization with declared order and cost metadata.

    steps is a tuple of `Step`s.
    """

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
    from .phasemap import _map

    g, _, _, h, _ = _map(s)
    return g == h


def has_exact_coefficients(s: Scheme) -> bool:
    """True iff every coefficient is an int or Fraction (exact series mode)."""
    return all(
        isinstance(st.c, (int, Fraction))
        and (st.u is None or isinstance(st.u, (int, Fraction)))
        for st in s.steps
    )


# ---------------------------------------------------------------------- I/O

def load_scheme(path: str) -> Scheme:
    """Load a scheme from a JSON coefficient file.

    The format is ``{"name", "order", "force_evals", "citation", "steps":
    [{"kind": "drift"|"kick"|"gkick", "c": number, "u": number (gkick only)}]}``
    with plain decimal numbers (no expression evaluation).
    """
    from .schemefile import read_scheme_file  # only scheme files need it
    return read_scheme_file(path)


# ------------------------------------------------------------------ registry

def _palindrome(*half: Step) -> tuple[Step, ...]:
    """The steps of half, then those before its last in reverse order."""
    return half + half[-2::-1]


_FR_THETA = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))

#: Every registry scheme as name -> (order, force_evals, citation, steps),
#: in listing order (also the CLI output order).
_REGISTRY = {
    "SV": (2, 1, "Stoermer/Verlet leapfrog",
           _palindrome(Step(KICK, Fraction(1, 2)), Step(DRIFT, 1))),
    "LF1": (1, 1, "first-order drift-then-kick map (non-reversible)",
            (Step(DRIFT, 1), Step(KICK, 1))),
    "LF1T": (1, 1, "first-order kick-then-drift map (transpose of LF1)",
             (Step(KICK, 1), Step(DRIFT, 1))),
    "FR": (4, 3, "Forest and Ruth (1990); coefficients after "
                 "Creutz-Gocksch/Yoshida",
           _palindrome(Step(DRIFT, _FR_THETA / 2), Step(KICK, _FR_THETA),
                       Step(DRIFT, (1 - _FR_THETA) / 2),
                       Step(KICK, 1 - 2 * _FR_THETA))),
    "C": (4, 4, "Chin forward force-gradient algorithm (4C form), "
                "3 force + 1 gradient evaluation",
          _palindrome(Step(DRIFT, Fraction(1, 6)), Step(KICK, Fraction(3, 8)),
                      Step(DRIFT, Fraction(1, 3)),
                      Step(GKICK, Fraction(1, 4), Fraction(-1, 96)))),
    "M": (4, 4, "McLachlan, SIAM J. Sci. Comput. 16 (1995) 151-168; "
                "four-stage fourth-order symmetric method",
          _palindrome(Step(DRIFT, 0.16913927992207206),
                      Step(KICK, 0.5454545454545454),
                      Step(DRIFT, -0.2991862039040509),
                      Step(KICK, -0.045454545454545414),
                      Step(DRIFT, 1.2600938479639576))),
    "BM": (4, 6, "Blanes and Moan, J. Comput. Appl. Math. 142 (2002) "
                 "313-330; six-stage fourth-order symmetric "
                 "Runge-Kutta-Nystroem method",
           _palindrome(Step(DRIFT, 0.0792036964311957),
                       Step(KICK, 0.209515106613362),
                       Step(DRIFT, 0.353172906049774),
                       Step(KICK, -0.143851773179818),
                       Step(DRIFT, -0.0420650803577195),
                       Step(KICK, 0.434336666566456),
                       Step(DRIFT, 0.21937695575349958))),
}

REGISTRY_ORDER = tuple(_REGISTRY)


def registry_names() -> tuple[str, ...]:
    return REGISTRY_ORDER


def get_scheme(name: str) -> Scheme:
    """Look up a registry scheme by name."""
    if name not in _REGISTRY:
        raise SchemeError(
            f"unknown scheme {name!r}; registry has {', '.join(REGISTRY_ORDER)}"
        )
    order, force_evals, citation, steps = _REGISTRY[name]
    return Scheme(name, steps, order, force_evals, citation)


def registry() -> list[Scheme]:
    """All registry schemes, in listing order."""
    return [get_scheme(name) for name in REGISTRY_ORDER]

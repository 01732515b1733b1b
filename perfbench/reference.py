"""The benchmark's own model of the registry schemes, used only to check outputs.

Coefficients are transcribed from the schemes' sources (not read from the
program), and the one-step map is the plain product of shears applied to
(q, p) in list order. Nothing here calls into oscmap, so a check that agrees
with this module is an independent confirmation.
"""

from __future__ import annotations

import math

_FR_THETA = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))


def _mirror(half: list[tuple]) -> tuple[tuple, ...]:
    """Palindrome whose middle step is the last entry of `half`."""
    return tuple(half + half[-2::-1])


# (kind, c, u): drift q += c*x*p; kick p -= (c*x + u*x^3)*q with omega = 1.
STEPS: dict[str, tuple[tuple, ...]] = {
    "SV": (("kick", 0.5, 0.0), ("drift", 1.0, 0.0), ("kick", 0.5, 0.0)),
    "LF1": (("drift", 1.0, 0.0), ("kick", 1.0, 0.0)),
    "LF1T": (("kick", 1.0, 0.0), ("drift", 1.0, 0.0)),
    "FR": _mirror([
        ("drift", _FR_THETA / 2, 0.0), ("kick", _FR_THETA, 0.0),
        ("drift", (1 - _FR_THETA) / 2, 0.0), ("kick", 1 - 2 * _FR_THETA, 0.0),
    ]),
    "C": _mirror([
        ("drift", 1 / 6, 0.0), ("kick", 3 / 8, 0.0),
        ("drift", 1 / 3, 0.0), ("kick", 1 / 4, -1 / 96),
    ]),
    # McLachlan, SIAM J. Sci. Comput. 16 (1995), four-stage order 4
    "M": _mirror([
        ("drift", 0.16913927992207206, 0.0), ("kick", 0.5454545454545454, 0.0),
        ("drift", -0.2991862039040509, 0.0), ("kick", -0.045454545454545414, 0.0),
        ("drift", 1.2600938479639576, 0.0),
    ]),
    # Blanes and Moan, J. Comput. Appl. Math. 142 (2002), six-stage order 4
    "BM": _mirror([
        ("drift", 0.0792036964311957, 0.0), ("kick", 0.209515106613362, 0.0),
        ("drift", 0.353172906049774, 0.0), ("kick", -0.143851773179818, 0.0),
        ("drift", -0.0420650803577195, 0.0), ("kick", 0.434336666566456, 0.0),
        ("drift", 0.21937695575349958, 0.0),
    ]),
}

#: Declared order of each scheme.
ORDER = {"SV": 2, "LF1": 1, "LF1T": 1, "FR": 4, "C": 4, "M": 4, "BM": 4}

#: First x > 0 where the map stops being stable, to about 1e-6, for the
#: schemes whose windows the workloads draw x from.
X_MAX = {"SV": 2.0, "FR": 1.573402, "C": math.sqrt(8.0), "BM": 3.132823}


def shear_matrix(scheme: str, x: float) -> tuple[float, float, float, float]:
    """One-step map (a, b, c, d), acting as q' = a q + b p, p' = c q + d p."""
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for kind, coef, u in STEPS[scheme]:
        if kind == "drift":
            a += coef * x * c
            b += coef * x * d
        else:
            mu = coef * x + u * x**3
            c -= mu * a
            d -= mu * b
    return a, b, c, d


def half_trace(scheme: str, x: float) -> float:
    a, _, _, d = shear_matrix(scheme, x)
    return 0.5 * (a + d)


def omega_a(scheme: str, x: float) -> float:
    """Modified frequency arccos(half trace)/x of an elliptic map."""
    return math.acos(half_trace(scheme, x)) / x

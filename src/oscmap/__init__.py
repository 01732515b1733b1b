"""Exact phase-space maps of splitting integrators on the harmonic oscillator.

Any composition of drifts, kicks, and force-gradient kicks acts on the
oscillator as one 2x2 symplectic matrix whose entries g, tau, nu and h are
finite polynomials in x = eps*omega. `phasemap` builds those four
polynomials once per scheme, in exact rational arithmetic (binary-exact for
float coefficients). The frequency series are read off those polynomials,
rational when the scheme's coefficients are and correctly rounded to floats
otherwise; numeric matrices are the rounded polynomials evaluated at a given
timestep and frequency; the stability limit comes from the exact half trace.
From that one map the package solves the N-step evolution in closed form,
extracts the modified (shadow) Hamiltonian with its effective mass and
spring constant, and benchmarks schemes through their phase-error
coefficients and stability limits. Two independent routes check it:
brute-force shear-by-shear iteration (`sim`) and an exact shear product,
with a fixed-point arccos, behind the Richardson estimate (`analysis`).
"""

from .series import Series, asin
from .schemes import (
    DRIFT, KICK, GKICK, Step, Scheme, SchemeError, SchemeFileError,
    get_scheme, has_exact_coefficients, is_symmetric, load_scheme,
    registry, registry_names, DATA_DIR_ENV,
)
from .phasemap import (
    PhaseMatrix, Regime, RegimeError, SpectralData, propagate_closed_form,
    scheme_matrix, spectral, sweep,
)
from .analysis import (
    AnalysisError, ConvergenceStudy, PhaseErrorReport, StabilityLimit,
    analyze, convergence_study, effective_param_series, omega_a_series,
    order_coefficient, stability_limit,
)
from .sim import TrajectoryRecord, iterate

__version__ = "0.1.0"

__all__ = [
    "Series", "asin",
    "DRIFT", "KICK", "GKICK", "Step", "Scheme", "SchemeError",
    "SchemeFileError", "get_scheme", "has_exact_coefficients",
    "is_symmetric", "load_scheme", "registry", "registry_names",
    "DATA_DIR_ENV",
    "PhaseMatrix", "Regime", "RegimeError", "SpectralData",
    "propagate_closed_form", "scheme_matrix", "spectral", "sweep",
    "AnalysisError", "ConvergenceStudy", "PhaseErrorReport", "StabilityLimit",
    "analyze", "convergence_study", "effective_param_series",
    "omega_a_series", "order_coefficient", "stability_limit",
    "TrajectoryRecord", "iterate",
    "__version__",
]

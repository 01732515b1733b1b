"""Exact phase-space maps of splitting integrators on the harmonic oscillator.

Any composition of drifts, kicks, and force-gradient kicks acts on the
oscillator as one 2x2 symplectic matrix whose entries g, tau, nu and h are
finite polynomials in x = eps*omega. `phasemap` builds those four
polynomials once per scheme, in exact rational arithmetic (binary-exact for
float coefficients). The frequency series are read off those polynomials,
rational when the scheme's coefficients are and, otherwise, built on
fixed-point integers rounded once from them and read as correctly rounded
floats; numeric matrices evaluate them exactly and round each entry once;
the stability limit comes from the exact half trace.
From that one map the package solves the N-step evolution in closed form,
extracts the modified (shadow) Hamiltonian with its effective mass and
spring constant, and benchmarks schemes through their phase-error
coefficients and stability limits. Two independent routes check it:
brute-force shear-by-shear iteration (`sim`) and an exact shear product,
with a fixed-point arccos, behind the Richardson estimate (`analysis`).

Every public name resolves lazily (PEP 562): `import oscmap` loads no
submodule, and the first access of a name imports its home module. So a
command pays only for the code it uses.
"""

#: Home module of each public name.
_EXPORTS = {
    "series": ("Series", "asin"),
    "schemes": ("DRIFT", "KICK", "GKICK", "Step", "Scheme", "SchemeError",
                "SchemeFileError", "get_scheme", "has_exact_coefficients",
                "is_symmetric", "load_scheme", "registry", "registry_names"),
    "phasemap": ("PhaseMatrix", "Regime", "RegimeError", "SpectralData",
                 "propagate_closed_form", "scheme_matrix", "spectral", "sweep"),
    "analysis": ("AnalysisError", "ConvergenceRow", "ConvergenceStudy",
                 "PhaseErrorReport", "StabilityLimit", "analyze",
                 "convergence_study", "effective_param_series",
                 "omega_a_series", "order_coefficient", "stability_limit"),
    "sim": ("TrajectoryRecord", "iterate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """Import a public name from its home module and keep it here."""
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

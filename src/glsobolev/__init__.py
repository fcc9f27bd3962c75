"""Sharp Sobolev constants for monomial weights, grand Lebesgue norms,
and numerical verification of the associated inequalities on radial
profiles.

Each public name is read off the submodule that defines it, which is
imported on first access (PEP 562).  ``import glsobolev`` therefore loads
no numpy; the first numeric call does.  numpy is the only runtime
dependency: no library path imports scipy.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "constants": (
        "TraceBoundPair", "sharp_constant", "sharp_constant_p1", "talenti_constant",
        "trace_bounds",
    ),
    "errors": (
        "DivergentIntegralError", "DomainError", "GlsobolevError", "InputError",
        "QuadratureError",
    ),
    "exponents": (
        "ExponentTuple", "as_exponent_tuple", "monomial_weight", "sobolev_exponent",
        "sobolev_exponent_inverse", "trace_exponent",
    ),
    "gammafn": ("gamma", "log_gamma"),
    "grand": (
        "PsiFunction", "SupremumResult", "calibrate_morrey_constant", "constant_psi",
        "fundamental_function", "gls_gradient_norm", "gls_norm", "modulus_of_continuity",
        "morrey_bound", "morrey_transform", "power_endpoint_psi", "tabulated_psi",
        "verify_gls_sobolev", "zeta_transform",
    ),
    "montecarlo": (
        "MonteCarloResult", "SamplerConfig", "monte_carlo_lp_norm",
        "monte_carlo_weighted_integral",
    ),
    "norms": (
        "angular_mass", "ball_mass", "radial_integral", "sup_norm", "weighted_gradient_norm",
        "weighted_lp_norm",
    ),
    "profiles": (
        "Compact", "Decaying", "RadialProfile", "bump", "extremal_profile", "gaussian",
        "generator_names", "make_profile", "power_tail", "smoothed_step", "step", "tent",
    ),
    "quadrature": (
        "QuadratureDiagnostics", "adaptive_quadrature", "extend_tail",
        "integrate_power_weighted",
    ),
    "reports": (
        "INEQUALITY_IDS", "VerificationReport", "canonical_digest", "exit_status",
        "format_float", "sort_reports", "write_csv", "write_jsonl",
    ),
    "verify": (
        "ProfileFamily", "ScalingFit", "check_morrey", "check_scaling", "check_sobolev",
        "check_trace_radial", "default_campaign_config", "fit_scaling_exponents",
        "rd_sequence", "run_campaign",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""Instantaneous and finite-time Lyapunov exponent fields, and Koopman
eigenfunctions, for planar autonomous vector fields."""

import importlib

# The public names by defining module.  Nothing loads until it is first used
# (PEP 562), so ``import ilekoop.cli`` costs no numpy and no unused module.
_EXPORTS = {
    "errors": "DomainError NoCrossingError NumericalError",
    "expr": "ParseError Poly2 parse_expression parse_polynomial to_polynomial to_text",
    "families": "CubicParams QuadraticParams carleman_solve claimed_s1_report"
                " cubic_attraction_rate equilibrium_and_r_solution make_cubic_family"
                " make_quadratic_family make_transformed_family one_d_residual"
                " quadratic_repulsion_rate s1_evolution_check transformed_claimed_attraction_rate",
    "flowmap": "Trajectory cauchy_green flow_endpoint ftle ftle_field integrate"
               " saddle_cauchy_green saddle_ftle",
    "koopman": "DataSurface KeigCandidate best_lambda evolution_check generator_apply"
               " keig_condition_residual keig_residual pullback_eigenfunction residual_report",
    "series": "SaddleEigenfunction SeriesTerm attraction_series_coefficients decompose_monomial"
              " greedy_series_coefficients geometric_tail_bound monomial_eigenfunction"
              " monomial_partial_sum partial_sum_check phi_minus_2k saddle_eigenfunction"
              " series_term",
    "strain": "Grid2D ScalarField SymTensor2 extract_extremal_set rate_field strain_rates"
              " strain_tensor write_csv write_pgm",
    "vectorfield": "IntegratorConfig VectorField2D analytic_saddle_flow field_from_json"
                   " field_to_json shear_free_defect",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

# The names and the eight modules, as ``from ilekoop import *`` bound them
# when this file imported everything.
__all__ = [*_HOME, *_EXPORTS]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})

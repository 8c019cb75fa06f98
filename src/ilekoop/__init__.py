"""Instantaneous and finite-time Lyapunov exponent fields, and Koopman
eigenfunctions, for planar autonomous vector fields."""

from .errors import DomainError, NoCrossingError, NumericalError
from .expr import ParseError, Poly2, parse_expression, parse_polynomial, to_polynomial, to_text
from .families import (
    CarlemanModel,
    CubicParams,
    QuadraticParams,
    carleman_solve,
    claimed_s1_report,
    cubic_attraction_rate,
    equilibrium_and_r_solution,
    make_cubic_family,
    make_quadratic_family,
    make_transformed_family,
    one_d_residual,
    quadratic_repulsion_rate,
    s1_evolution_check,
    transformed_claimed_attraction_rate,
)
from .flowmap import (
    IntegratorConfig,
    Trajectory,
    cauchy_green,
    flow_endpoint,
    ftle,
    ftle_field,
    integrate,
    saddle_cauchy_green,
    saddle_ftle,
)
from .koopman import (
    DataSurface,
    KeigCandidate,
    best_lambda,
    evolution_check,
    generator_apply,
    keig_condition_residual,
    keig_residual,
    pullback_eigenfunction,
    residual_report,
)
from .series import (
    SaddleEigenfunction,
    SeriesTerm,
    attraction_series_coefficients,
    decompose_monomial,
    greedy_series_coefficients,
    geometric_tail_bound,
    monomial_eigenfunction,
    monomial_partial_sum,
    partial_sum_check,
    phi_minus_2k,
    saddle_eigenfunction,
    series_term,
)
from .strain import (
    Grid2D,
    ScalarField,
    SymTensor2,
    extract_extremal_set,
    rate_field,
    strain_rates,
    strain_tensor,
    write_csv,
    write_pgm,
)
from .vectorfield import (
    VectorField2D,
    analytic_saddle_flow,
    field_from_json,
    field_to_json,
    shear_free_defect,
)

__version__ = "0.1.0"

"""Numerics for polynomial interpolation on an L-shape arc.

Exterior conformal map of the arc, its corner-fold function, raw and
separation-adjusted interpolation node families, and the metric suite
built on the nodal polynomial: Lebesgue constants, level-curve extrema,
Muckenhoupt A_p constants, Marcinkiewicz-Zygmund ratios, and growth-law
fits.
"""

from .conformal import (
    CORNER_ANGLE,
    ENDPOINT_RADIUS,
    LevelCurve,
    arc_length,
    arm_point,
    boundary_point,
    dist_to_level,
    level_point,
    psi,
    psi_prime,
)
from .fold import fold_closed_form, fold_oracle, fold_prime, fold_sister, unfold
from .families import (
    LevelNodes,
    NodeFamily,
    build_adjusted,
    build_level_nodes,
    build_raw,
    k1_k2_locate,
    mirror_index,
    separation_margin,
    theta_grid,
)
from .nodal import (
    DerivativeTable,
    asymptotic_omega_estimate,
    build_derivative_table,
    lebesgue_function,
    lebesgue_function_grid,
    log_abs_omega,
)
from .metrics import (
    FitResult,
    MetricRecord,
    choose_ratio_index,
    fit_growth,
    lebesgue_constant,
    level_minmax,
    lower_bound_witness,
    muckenhoupt_constant,
    mz_ratio,
    mz_ratio_worst,
    separation_ok,
)

__version__ = "0.1.0"

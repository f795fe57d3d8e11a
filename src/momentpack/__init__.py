"""Rectangle packing via truncated moment systems.

Reduces "do these rectangles tile this box" to a finite polynomial system
over placement corners, solves it numerically with deterministic multistart
Levenberg-Marquardt, and keeps the numerics honest with an independent
geometric verifier (float and exact-rational modes), a signed
corner-cancellation test, an exhaustive oracle for small integer instances,
and the constants of the harmonic family's centroid identities, which are the
system's equations of order two.
"""

from .harmonic import IdentityId, rhs_consistency, rhs_constant, rhs_derive
from .instances import (
    BoxSpec,
    Instance,
    Layout,
    Placement,
    RectSpec,
    gen_guillotine,
    harmonic_prefix,
    parse_instance,
    parse_layout,
    serialize_instance,
    serialize_layout,
    squared_rectangle_32x33,
)
from .moments import (
    FIXED,
    ROTATABLE,
    MomentSystem,
    build_system,
    default_max_order,
    jacobian,
    layout_to_vars,
    residual,
    vars_to_layout,
)
from .oracle import enumerate_small_family, oracle_feasible
from .solver import (
    SolveConfig,
    SolveReport,
    snap_layout,
    solve_multistart,
    solve_single,
)
from .verify import (
    VerificationReport,
    area_can_pass,
    corner_cancellation,
    fit_can_pass,
    moment_residual_of_layout,
    verify_exact,
    verify_layout,
)

__version__ = "0.1.0"

__all__ = [
    "BoxSpec",
    "FIXED",
    "IdentityId",
    "Instance",
    "Layout",
    "MomentSystem",
    "Placement",
    "RectSpec",
    "ROTATABLE",
    "SolveConfig",
    "SolveReport",
    "VerificationReport",
    "area_can_pass",
    "build_system",
    "corner_cancellation",
    "default_max_order",
    "enumerate_small_family",
    "fit_can_pass",
    "gen_guillotine",
    "harmonic_prefix",
    "jacobian",
    "layout_to_vars",
    "moment_residual_of_layout",
    "oracle_feasible",
    "parse_instance",
    "parse_layout",
    "residual",
    "rhs_consistency",
    "rhs_constant",
    "rhs_derive",
    "serialize_instance",
    "serialize_layout",
    "snap_layout",
    "solve_multistart",
    "solve_single",
    "squared_rectangle_32x33",
    "vars_to_layout",
    "verify_exact",
    "verify_layout",
]

"""Proportions of classical group elements whose characteristic polynomial
has no irreducible factor of small degree.

The layers build on each other: finite fields and polynomial counting
(``gf``), the rational group algebra of a cyclic group (``cyclo``), exact
generating functions (``series``), rigorous limit enclosures (``limits``),
enumerated matrix groups with their subspace actions (``matgroup``), and
statistics, bounds, and generation probes over them (``stats``).  The
``cli`` module wraps everything in a batch command line tool.
"""

__version__ = "1.0.0"

from .gf import Field, count_irreducibles, has_small_degree_factor
from .limits import (
    Enclosure,
    LimitFamily,
    bound_suite,
    limit_value,
    q_infinity_limit,
)
from .matgroup import (
    ActionSpec,
    GroupTable,
    ResourceCapExceeded,
    build_group,
    enumerate_action,
    group_order,
    membership_sets,
    tau_membership,
)
from .series import gl_no_small_factor_series, sl_coset_series
from .stats import (
    coset_average_fixed_points,
    expectation_inequality,
    fpr_bound_check,
    generation_probe,
    inverse_transpose_identity_check,
    orthogonal_reflection_identity_check,
    proportion,
    psl2,
    subset_expectation,
    symmetric_a,
    symmetric_expectation,
    three_halves_generation,
    weyl_negative_cycle_statistic,
    wilson_interval,
)

__all__ = [
    "__version__",
    "Field",
    "count_irreducibles",
    "has_small_degree_factor",
    "Enclosure",
    "LimitFamily",
    "bound_suite",
    "limit_value",
    "q_infinity_limit",
    "ActionSpec",
    "GroupTable",
    "ResourceCapExceeded",
    "build_group",
    "enumerate_action",
    "group_order",
    "membership_sets",
    "tau_membership",
    "gl_no_small_factor_series",
    "sl_coset_series",
    "coset_average_fixed_points",
    "expectation_inequality",
    "fpr_bound_check",
    "generation_probe",
    "inverse_transpose_identity_check",
    "orthogonal_reflection_identity_check",
    "proportion",
    "psl2",
    "subset_expectation",
    "symmetric_a",
    "symmetric_expectation",
    "three_halves_generation",
    "weyl_negative_cycle_statistic",
    "wilson_interval",
]

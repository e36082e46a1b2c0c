"""Exact prime-characteristic invariants from lattice escape sets.

Given a sequence of ideals in F_p[x_1..x_n] (or a quotient) and a reference
ideal or p-family, this package enumerates the level-e escape sets exactly,
tabulates F-threshold / F-volume / Hilbert-Kunz estimates as exact rationals,
and verifies the per-level identities and inequalities those limits rest on.
"""

from .errors import (
    BadInputError,
    BadLevelError,
    BudgetExceededError,
    ExponentOverflowError,
    FrobvolError,
    HypothesisViolatedError,
    NonPrimeError,
    NotPrimaryError,
    PolyParseError,
    RingMismatchError,
    SpecParseError,
    TheoremViolationError,
)
from .groebner import (
    GroebnerBasis,
    Ideal,
    buchberger,
    frobenius_power,
    groebner_basis,
    ideal_contains,
    ideal_intersection,
    ideal_sum,
    krull_dimension,
    power_containment_index,
    radical_membership,
    staircase_count_of,
    standard_monomial_count,
)
from .invariants import (
    CHECK_NAMES,
    CheckReport,
    EstimateTable,
    check_containment_monotone,
    check_frob_shift,
    check_hk_length_inequality,
    check_level_refinement_bound,
    check_simplex_bound,
    check_slice_bound,
    check_sup_identity,
    check_threshold_bounds,
    check_union_decomposition,
    fedder_criterion,
    fpure_ci_label,
    hilbert_kunz_table,
    is_parameter_sequence,
    nu,
    threshold_table,
    truncation_table,
    volume_table,
)
from .regions import (
    DEFAULT_BUDGET,
    BudgetCounter,
    CoverCheck,
    DownSet,
    IdealSequence,
    PFamily,
    axis_bounds,
    border_points,
    box_region,
    downset_csv,
    escape_set,
    escape_sets,
    escape_sizes,
    escapes,
    staircase_svg,
    verify_cover,
)
from .ring import (
    Polynomial,
    PolynomialRing,
    parse_polynomial,
)

__version__ = "0.1.0"

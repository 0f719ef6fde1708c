"""Exact verification of Euler-calculus index formulas on embedded complexes.

Everything is rational arithmetic end to end: complexes are embedded with
Fraction coordinates, test functions are affine or affine-plus-quadratic
with Fraction coefficients, and every reported number is an integer or an
exact rational.  The headline operations are the four verifiers in
`intersect` (theorem-style identity checks returning TheoremReport) and the
characteristic-cycle machinery in `charcycle` that they are built on.
"""

from .charcycle import (
    CharacteristicCycle,
    ConormalChamber,
    antipodal_support_check,
    chamber_witnesses,
    enumerate_chambers,
    is_nondegenerate,
    multiplicity_at,
    support_contains,
)
from .complexes import (
    EmbeddedComplex,
    StratumRef,
    Subcomplex,
    barycentric_coordinates,
    carrier,
    close_under_faces,
    closed_star,
    induced_complex,
    simplex,
    validate,
)
from .constructible import (
    ConstructibleFunction,
    constant_function,
    dual,
    euler_integral,
    from_values,
    halflink_integral,
    indicator,
    jshriek_extend,
    jstar_extend,
    slice_integral,
    transport,
    vanishing_cycle,
)
from .errors import (
    BoundaryCollisionError,
    DegeneracyError,
    DegenerateFunctionError,
    HypothesisViolationError,
    InputError,
    NonConvergenceError,
    TransversalityError,
    UnstableLevelError,
)
from .fixtures import Fixture, builtin_fixtures, fixture_by_name, random_fixture
from .functions import AffineFunction, QuadAffineFunction, squared_distance_from
from .homology import betti_numbers, betti_oracle, euler_characteristic
from .intersect import (
    TheoremReport,
    boundary_estimate_check,
    compute_intersection_locus,
    global_index,
    local_index,
    verify_theorem1,
)
from .linalg import Fraction, SymMatrix, Vec, rat, strict_feasibility
from .morse import (
    CriticalPoint,
    RationalSampler,
    critical_points,
    stabilized_count,
    stratified_morse_sum,
)
from .subdivision import barycentric_subdivide, subdivide_along_hyperplane

__all__ = [
    "AffineFunction",
    "BoundaryCollisionError",
    "CharacteristicCycle",
    "ConormalChamber",
    "ConstructibleFunction",
    "CriticalPoint",
    "DegeneracyError",
    "DegenerateFunctionError",
    "EmbeddedComplex",
    "Fixture",
    "Fraction",
    "HypothesisViolationError",
    "InputError",
    "NonConvergenceError",
    "QuadAffineFunction",
    "RationalSampler",
    "StratumRef",
    "Subcomplex",
    "SymMatrix",
    "TheoremReport",
    "TransversalityError",
    "UnstableLevelError",
    "Vec",
    "antipodal_support_check",
    "barycentric_coordinates",
    "barycentric_subdivide",
    "betti_numbers",
    "betti_oracle",
    "boundary_estimate_check",
    "builtin_fixtures",
    "carrier",
    "chamber_witnesses",
    "close_under_faces",
    "closed_star",
    "compute_intersection_locus",
    "constant_function",
    "critical_points",
    "dual",
    "enumerate_chambers",
    "euler_characteristic",
    "euler_integral",
    "fixture_by_name",
    "from_values",
    "global_index",
    "halflink_integral",
    "indicator",
    "induced_complex",
    "is_nondegenerate",
    "jshriek_extend",
    "jstar_extend",
    "local_index",
    "multiplicity_at",
    "random_fixture",
    "rat",
    "simplex",
    "slice_integral",
    "squared_distance_from",
    "stabilized_count",
    "stratified_morse_sum",
    "strict_feasibility",
    "subdivide_along_hyperplane",
    "support_contains",
    "transport",
    "validate",
    "vanishing_cycle",
    "verify_theorem1",
]

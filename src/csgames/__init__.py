"""Complete simple games: representation, classification, transforms, enumeration.

The package models monotone voting games whose desirability relation totally
preorders the players.  Games can be held extensionally (minimal winning
coalitions over explicit players) or by their characteristic invariants
(class sizes plus the matrix of shift-minimal winning profiles), and the two
views convert into each other exactly.
"""

from .core import (
    Desirability,
    SimpleGame,
    TypePartition,
    WeightedRepresentation,
    coalition_mask,
    coalition_members,
    desirability,
    from_weighted,
    is_winning,
    normalize_min_winning,
    type_partition,
)
from .enumeration import EnumSpec, compositions, count_by_rows, count_games, enumerate_invariants
from .errors import CapacityError, DomainError, GameError, NotCompleteError, ValidationError
from .formulas import Family, evaluate, fib, golden_ratio_gap, phi_bounds
from .invariants import (
    Invariants,
    check_conditions,
    expand,
    extract,
    is_winning_profile,
    validate,
    winning_profiles,
)
from .oracle import oracle_count
from .profiles import DeltaRelation, Profile, ProfileBox, box_profiles, delta_compare, profile_of
from .roles import Role, RoleReport, semantic_roles, structural_roles
from .transforms import Bijection, apply_bijection, dual, dual_invariants

__version__ = "0.1.0"

__all__ = [
    "Bijection",
    "CapacityError",
    "Desirability",
    "DeltaRelation",
    "DomainError",
    "EnumSpec",
    "Family",
    "GameError",
    "Invariants",
    "NotCompleteError",
    "Profile",
    "ProfileBox",
    "Role",
    "RoleReport",
    "SimpleGame",
    "TypePartition",
    "ValidationError",
    "WeightedRepresentation",
    "apply_bijection",
    "box_profiles",
    "check_conditions",
    "coalition_mask",
    "coalition_members",
    "compositions",
    "count_by_rows",
    "count_games",
    "delta_compare",
    "desirability",
    "dual",
    "dual_invariants",
    "enumerate_invariants",
    "evaluate",
    "expand",
    "extract",
    "fib",
    "from_weighted",
    "golden_ratio_gap",
    "is_winning",
    "is_winning_profile",
    "normalize_min_winning",
    "oracle_count",
    "phi_bounds",
    "profile_of",
    "semantic_roles",
    "structural_roles",
    "type_partition",
    "validate",
    "winning_profiles",
]

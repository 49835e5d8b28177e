"""covnum: covering numbers of finite permutation groups.

A group's covering number is the least number of proper subgroups whose
union is the whole group (infinite for cyclic groups). This package computes
it at desk scale three ways: a greedy class-by-class bound with a rational
minimality certificate, an exact branch-and-bound set-cover search over
maximal subgroup classes, and closed forms / published values for known
families.
"""

from .cover import CoverInstance, CoverResult, SolveBudget, build_instance, \
    sigma_exact, solve
from .errors import (
    BudgetExceeded,
    CapExceeded,
    CovnumError,
    CyclicGroup,
    DegreeMismatch,
    Infeasible,
    IngestInvalid,
    IndexTooLarge,
    NoSupplement,
    NotACover,
    OutOfRange,
    ParseError,
    Unbounded,
    Undecided,
    Unknown,
)
from .greedy import CertificateReport, CountingBound, GreedyTrace, \
    counting_lower_bound, covering_number_bounds, verify_minimal_cover
from .groups import ConjClass, ConjClassTable, PermGroup, format_group_file, \
    parse_group_file
from .incidence import IncidenceProfile, incidence_profile, parse_profile, \
    render_profile
from .perms import Permutation, format_cycles, parse_permutation
from .registry import KnownEntry, SigmaElementaryReport, is_sigma_elementary, \
    lookup_known, sigma_formula, sigma_solvable
from .subgroups import MaxClass, MaxClassSet, Subgroup, all_subgroups, \
    coset_action, is_primitive_monolithic, is_solvable, maximal_classes_computed, \
    maximal_classes_from_file, min_supplement_index, minimal_normal_subgroups, \
    normal_core, normal_subgroups
from .affine import AffineCover, GF, affine_group, agl_cover

__version__ = "0.1.0"

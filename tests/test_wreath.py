"""A5 wr 2, the primitive monolithic group of the paper whose socle A5 x A5
is a direct power of a simple group: σ = 57 and primitivity degree 25
(Garonzi). Its order, 7200, is over the default lattice cap, so its maximal
classes are computed at a 10,000 cap, once for the module. Proving σ = 57
takes about 150,000 search nodes and stays out of these tests: they check
that 57 lies in the greedy bracket and in a bracket cut at 2,000 nodes."""

import hashlib

import pytest

from covnum.cover import SolveBudget, build_instance, solve
from covnum.greedy import covering_number_bounds
from covnum.subgroups import is_primitive_monolithic, maximal_classes_computed, \
    minimal_normal_subgroups
from test_subgroups import a5_wr_2

SIGMA = 57
# sha256 of [[sorted(m) for m in cls.members] for cls in route], pinned after
# the route matched the maximal flags of the whole lattice walk (103 classes)
ROUTE_SHA256 = "81f2602d6b90e21e0cd6f18c9680653002146aad6ccfa1a57db55a1fa2b13521"


@pytest.fixture(scope="module")
def wreath():
    group = a5_wr_2()
    return group, maximal_classes_computed(group, lattice_max_order=10_000)


def test_one_minimal_normal_subgroup_a5_squared(wreath):
    group, _ = wreath
    assert [n.order for n in minimal_normal_subgroups(group)] == [3600]


def test_maximal_route_is_pinned(wreath):
    """The class of index 2 holds N; the other five supplement N, as the
    normalizers of products (index 25, 36, 100) and diagonals (60, 60) in
    N."""
    _, mx = wreath
    assert [(c.index, c.class_length) for c in mx] == \
        [(2, 1), (25, 25), (36, 36), (60, 60), (60, 60), (100, 100)]
    key = [[sorted(m) for m in c.members] for c in mx]
    assert hashlib.sha256(repr(key).encode()).hexdigest() == ROUTE_SHA256


def test_primitive_monolithic_of_degree_25(wreath):
    assert is_primitive_monolithic(*wreath) == (True, True, 25)


def test_greedy_bracket_holds_sigma(wreath):
    trace = covering_number_bounds(*wreath)
    assert (trace.lower, trace.upper, trace.certified) == (36, 62, False)
    assert trace.lower <= SIGMA <= trace.upper


def test_cut_search_bracket_holds_sigma(wreath):
    group, mx = wreath
    result = solve(build_instance(group, group.conjugacy_classes(), mx),
                   SolveBudget(max_nodes=2000))
    assert (result.lower, result.upper, result.budget_exhausted) == (48, 57, True)
    assert result.lower <= SIGMA <= result.upper

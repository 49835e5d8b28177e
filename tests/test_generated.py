"""Differential tests on generated groups: the solver and the greedy route
against the brute-force oracle, on subgroups of S_n (n <= 6) generated by
two or three random permutations."""

from hypothesis import HealthCheck, assume, given, settings, strategies as st
from oracle import exhaustive_sigma

from covnum.cover import SolveBudget, build_instance, sigma_exact, solve
from covnum.greedy import covering_number_bounds
from covnum.groups import PermGroup
from covnum.perms import Permutation
from covnum.subgroups import maximal_classes_computed


@st.composite
def small_groups(draw) -> PermGroup:
    n = draw(st.integers(3, 6))
    gens = draw(st.lists(st.permutations(range(n)), min_size=2, max_size=3))
    group = PermGroup(n, [Permutation(tuple(g)) for g in gens])
    assume(group.order <= 360 and not group.is_cyclic())
    return group


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(small_groups())
def test_generated_group_agrees_with_oracle(group):
    mx = maximal_classes_computed(group)
    result = sigma_exact(group, mx=mx)
    assert result.optimal
    sigma = result.upper
    columns = [member for cls in mx.classes for member in cls.members]
    assert exhaustive_sigma(set(range(1, group.order)), columns, sigma + 1) == sigma

    trace = covering_number_bounds(group, mx)
    assert trace.lower <= sigma <= trace.upper
    assert not trace.certified or trace.upper == sigma

    cut = solve(build_instance(group, group.conjugacy_classes(), mx),
                SolveBudget(max_nodes=3))
    assert cut.lower <= sigma <= cut.upper
    assert not cut.optimal or cut.upper == sigma

"""Differential tests on generated groups: the solver, the greedy route and
the solvable formula against the brute-force oracle, the quotient covering
numbers against the image groups' own, the class table against an orbit
search per class, the atoms against per-element orders, the lattice against
an unpruned reference walk, the maximal classes and the complement counts
against the lattice walk's maximal flags, and the normal and maximal
subgroups, the walk's cap on proper overgroups and the ingest maximality
check against the whole lattice, on subgroups of S_n (n <= 6) generated by
two or three random permutations."""

from hypothesis import HealthCheck, Phase, assume, given, settings, strategies as st
from oracle import exhaustive_sigma
from test_cover import _quadratic_reduce_universe
from test_groups import check_classes_against_orbit_reference
from test_registry import chief_factors, image_quotient_sigmas
from test_subgroups import check_atoms_against_reference, check_ingest_against_lattice, \
    check_overgroup_cap_against_lattice, lattice_maximal_classes, max_class_set_key, \
    reference_subgroups

from covnum.cover import SolveBudget, _minimal_positions, _reduce_universe, build_instance, \
    sigma_exact, solve
from covnum.greedy import covering_number_bounds
from covnum.groups import PermGroup
from covnum.perms import Permutation
from covnum.registry import is_sigma_elementary, sigma_solvable
from covnum.subgroups import all_subgroups, chief_series, is_solvable, \
    maximal_classes_computed, minimal_normal_subgroups, normal_subgroups


@st.composite
def small_groups(draw) -> PermGroup:
    n = draw(st.integers(3, 6))
    gens = draw(st.lists(st.permutations(range(n)), min_size=2, max_size=3))
    group = PermGroup(n, [Permutation(tuple(g)) for g in gens])
    assume(group.order <= 360 and not group.is_cyclic())
    return group


# No shrink phase, and a node budget on the exact solve: a broken maximal
# flag hands the solver non-maximal columns, and replaying such an example
# per shrink step, each solve up to the default 5,000,000 nodes, left the
# file without a verdict for minutes. The same 40 examples are checked; the
# largest of them needs 3,947 nodes.
GENERATED = settings(max_examples=40, derandomize=True, deadline=None,
                     phases=[p for p in Phase if p is not Phase.shrink],
                     suppress_health_check=[HealthCheck.filter_too_much])


@GENERATED
@given(small_groups())
def test_generated_group_agrees_with_oracle(group):
    mx = maximal_classes_computed(group)
    result = sigma_exact(group, SolveBudget(max_nodes=50_000), mx=mx)
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

    # sigma(G/N) from G's maximal classes that contain N, against the image
    # group's own exact solve
    report = is_sigma_elementary(group, sigma=sigma, mx=mx)
    assert [c.quotient_sigma for c in report.checks] == image_quotient_sigmas(group)

    if is_solvable(group):
        assert sigma_solvable(group) == sigma
        # the complement counts are those among the lattice walk's maximal
        # members: every complement of an abelian chief factor is maximal
        members = [m for cls in lattice_maximal_classes(group) for m in cls.members]
        series = [sub.elements for sub in chief_series(group)]
        assert [count for _, count in chief_factors(group)] == [
            sum(c & above == below and len(c) * len(above) == group.order * len(below)
                for c in members)
            for below, above in zip(series, series[1:])]


@GENERATED
@given(small_groups())
def test_generated_group_classes_match_the_orbit_reference(group):
    check_classes_against_orbit_reference(group)


@GENERATED
@given(small_groups())
def test_generated_group_atoms_match_the_per_element_reference(group):
    check_atoms_against_reference(group, range(group.order))


@GENERATED
@given(small_groups())
def test_generated_group_overgroup_cap_bounds_every_proper_overgroup(group):
    check_overgroup_cap_against_lattice(group)


@GENERATED
@given(small_groups(), st.data())
def test_generated_group_class_filter_matches_the_quadratic_reference(group, data):
    """The universe reduced over the element classes that _minimal_positions
    keeps is the quadratic reference's, with every element class and with a
    drawn subset of them, which can leave out the element whose column set
    lies inside another's."""
    cls, mx = group.conjugacy_classes(), maximal_classes_computed(group)
    subset = data.draw(st.lists(st.sampled_from([c.label for c in cls]), min_size=1,
                                unique=True))
    for elts in (None, subset):
        inst = build_instance(group, cls, mx, elts=elts)
        assert _reduce_universe(inst.column_masks, _minimal_positions(inst)) == \
            _quadratic_reduce_universe(inst.column_masks, inst.universe_size)


@GENERATED
@given(small_groups())
def test_generated_group_structure_matches_lattice(group):
    """The lattice is the unpruned reference's up to order 120;
    normal_subgroups lists the lattice subgroups that conjugation by each
    generator maps onto themselves, in lattice order, and
    minimal_normal_subgroups the minimal nontrivial ones; chief_series is a
    chain of them with none strictly between two terms; the computed maximal
    classes hold exactly the proper subgroups with nothing strictly between
    them and the group, and are the lattice walk's byte for byte; and the
    ingest check accepts exactly those."""
    subs = all_subgroups(group)
    if group.order <= 120:
        assert {sub.elements for sub in subs} == reference_subgroups(group)
    elems = group.elements()
    normal = []
    for sub in subs:
        images = {elems[i].images for i in sub.elements}
        if all(elems[i].conjugated_by(g).images in images
               for g in group.generators for i in sub.elements):
            normal.append(sub.elements)
    assert [sub.elements for sub in normal_subgroups(group)] == normal
    assert [sub.elements for sub in minimal_normal_subgroups(group)] == \
        [n for n in normal[1:] if not any(m < n for m in normal[1:])]
    full = subs[-1].elements
    series = [sub.elements for sub in chief_series(group)]
    assert len(series[0]) == 1 and series[-1] == full
    for below, above in zip(series, series[1:]):
        assert below < above and above in normal
        assert not any(below < n < above for n in normal)
    maximal = {sub.elements for sub in subs[:-1]
               if not any(sub.elements < s.elements < full for s in subs)}
    computed = maximal_classes_computed(group)
    assert {m for cls in computed for m in cls.members} == maximal
    assert max_class_set_key(computed) == max_class_set_key(lattice_maximal_classes(group))
    check_ingest_against_lattice(group, subs, maximal)

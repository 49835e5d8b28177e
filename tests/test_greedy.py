from fractions import Fraction

import pytest

from covnum import library
from covnum.errors import CyclicGroup, NotACover, Unbounded
from covnum.greedy import counting_lower_bound, covering_number_bounds, \
    greedy_from_profile, render_trace, verify_minimal_cover
from covnum.incidence import IncidenceProfile, ElementClassInfo, SubgroupClassInfo, \
    incidence_profile, parse_profile


def _profile(key):
    group = library.group(key)
    return incidence_profile(group, group.conjugacy_classes(), library.maximals(key))


def test_a5_trace_both_modes():
    group = library.group("A5")
    mx = library.maximals("A5")
    for mode in ("faithful", "corrected"):
        trace = covering_number_bounds(group, mx, mode)
        assert (trace.lower, trace.upper, trace.certified) == (6, 11, False)
        assert trace.minlist == (6, 3)
        first, second = trace.iterations
        assert first.element_class.startswith("cl_5") and first.best == 6
        assert second.element_class == "cl_3"
        assert (second.best, second.subgroups_added) == (3, 5)


def test_v4_modes_disagree():
    group = library.group("V4")
    mx = library.maximals("V4")
    faithful = covering_number_bounds(group, mx, "faithful")
    corrected = covering_number_bounds(group, mx, "corrected")
    assert (faithful.lower, faithful.upper, faithful.certified) == (1, 6, False)
    assert (corrected.lower, corrected.upper, corrected.certified) == (1, 3, True)


def test_m11_trace_regression():
    trace = covering_number_bounds(library.group("M11"), library.maximals("M11"))
    assert (trace.lower, trace.upper, trace.certified) == (12, 23, True)
    assert [it.subgroup_class for it in trace.iterations] == ["M2", "M1"]


@pytest.mark.parametrize("key,known", [
    ("V4", 3), ("S3", 4), ("A5", 10), ("S5", 16), ("A6", 16), ("S6", 13),
    ("PSL27", 15), ("PGL27", 29), ("AGL15", 6), ("M11", 23),
])
def test_greedy_brackets_known_sigma(key, known):
    group = library.group(key)
    mx = library.maximals(key)
    corrected = covering_number_bounds(group, mx, "corrected")
    faithful = covering_number_bounds(group, mx, "faithful")
    for trace in (corrected, faithful):
        assert trace.lower <= known <= trace.upper
    assert corrected.upper <= faithful.upper
    if all(c.self_normalizing for c in mx.classes):
        assert corrected.upper == faithful.upper


def test_trace_internal_consistency():
    for key in ["A5", "S5", "M11", "V4"]:
        for mode in ("faithful", "corrected"):
            trace = covering_number_bounds(library.group(key),
                                           library.maximals(key), mode)
            assert trace.lower == trace.minlist[0]
            assert trace.upper == sum(it.subgroups_added for it in trace.iterations)
            assert all(m <= trace.upper for m in trace.minlist)
            if trace.certified:
                assert all(it.best == it.subgroups_added for it in trace.iterations)


def test_greedy_unbounded_on_cyclic():
    group = library.group("C6")
    mx = library.maximals("C6")
    with pytest.raises(CyclicGroup):
        covering_number_bounds(group, mx)
    # from the profile alone, the generators' class meets no maximal class
    profile = incidence_profile(group, group.conjugacy_classes(), mx)
    with pytest.raises(Unbounded):
        greedy_from_profile(profile)


def test_certificate_a5_order5():
    report = verify_minimal_cover(_profile("A5"), ["cl_5,1", "cl_5,2"], ["M2"])
    assert report.verdict == "unique_minimal"
    assert report.partition_ok
    assert report.cover_size == 6
    assert set(report.c_values.values()) == {Fraction(0)}


def test_certificate_single_normal_class():
    # V4: one element class fully inside its own normal maximal subgroup;
    # the two competitor classes miss it entirely
    prof = _profile("V4")
    label = prof.element_classes[0].label
    cover = next(sc.label for sc in prof.subgroup_classes
                 if prof.entries[0][prof.subgroup_index(sc.label)][0] > 0)
    report = verify_minimal_cover(prof, [label], [cover])
    assert report.verdict == "unique_minimal"
    assert all(v == 0 for v in report.c_values.values())


def test_certificate_table_fixture(data_dir):
    prof = parse_profile((data_dir / "psl274_profile.tsv").read_text())
    report = verify_minimal_cover(prof, ["cl_24", "cl_16"], ["M1", "M3"])
    assert report.verdict == "unique_minimal"
    assert report.c_values == {"M2": Fraction(0), "M4": Fraction(0)}
    assert report.cover_size == 442


def test_certificate_not_a_cover():
    with pytest.raises(NotACover):
        verify_minimal_cover(_profile("A5"), ["cl_5,1", "cl_3"], ["M2"])


def test_certificate_rejects_useless_cover_class():
    with pytest.raises(NotACover, match="contains no elements of pi"):
        verify_minimal_cover(_profile("A5"), ["cl_5,1"], ["M2", "M1"])
    with pytest.raises(NotACover, match="repeated cover class"):
        verify_minimal_cover(_profile("A5"), ["cl_5,1"], ["M2", "M2"])


def test_certificate_boundary_c_equal_one_is_minimal_not_unique():
    prof = parse_profile("\tM1(2)\tM2(2)\ncl_2\t2,P\t2,P\n")
    report = verify_minimal_cover(prof, ["cl_2"], ["M1"])
    assert report.partition_ok
    assert report.c_values == {"M2": Fraction(1)}
    assert report.verdict == "minimal"


def test_certificate_inconclusive_without_partition():
    # A5 involutions: 5 per D10 but multiplicity 2, so no partition
    report = verify_minimal_cover(_profile("A5"), ["cl_2"], ["M2"])
    assert not report.partition_ok
    assert report.verdict == "inconclusive"


def test_certificate_rationals_stable_under_relabelling():
    prof = _profile("A5")
    report = verify_minimal_cover(prof, ["cl_5,1", "cl_5,2"], ["M2"])
    flipped = IncidenceProfile(
        element_classes=tuple(reversed(prof.element_classes)),
        subgroup_classes=tuple(reversed(prof.subgroup_classes)),
        entries=tuple(tuple(reversed(row)) for row in reversed(prof.entries)),
    )
    report2 = verify_minimal_cover(flipped, ["cl_5,1", "cl_5,2"], ["M2"])
    assert report.c_values == report2.c_values
    assert report.verdict == report2.verdict


def test_counting_bound_zero_remaining():
    bound = counting_lower_bound(_profile("A5"), {})
    assert bound.total == 0 and bound.per_class == {}


def test_counting_bound_a5_order5():
    prof = _profile("A5")
    bound = counting_lower_bound(prof, {"cl_5,1": 12, "cl_5,2": 12})
    assert bound.total == 6
    assert bound.per_class == {"cl_5,1": 6, "cl_5,2": 6}
    assert bound.groups == (("cl_5,1", "cl_5,2"),)


def test_counting_bound_fixture_chain(data_dir):
    prof = parse_profile((data_dir / "ominus82_profile.tsv").read_text())
    sizes = {ec.label: ec.size for ec in prof.element_classes}
    partial = counting_lower_bound(prof, {"cl_17": sizes["cl_17"], "cl_30": sizes["cl_30"]})
    assert partial.total == 24192 + 1071 == 25263


def test_counting_bound_unbounded():
    prof = IncidenceProfile(
        element_classes=(ElementClassInfo("cl_2", 2, 4), ElementClassInfo("cl_3", 3, 4)),
        subgroup_classes=(SubgroupClassInfo("M1", 2),),
        entries=(((2, 1),), ((0, 0),)),
    )
    with pytest.raises(Unbounded):
        counting_lower_bound(prof, {"cl_3": 4})


def test_render_trace_shape():
    trace = covering_number_bounds(library.group("A5"), library.maximals("A5"))
    text = render_trace(trace)
    assert text.splitlines()[0].startswith("iter")
    assert "6 <= sigma <= 11" in text


def test_greedy_from_profile_matches_group_route(data_dir):
    prof = _profile("A5")
    assert greedy_from_profile(prof).upper == 11


def test_certified_upper_equals_exact_sigma():
    from covnum.cover import sigma_exact
    for key in ["V4", "C3xC3", "M11", "D8", "Q8", "S3"]:
        group = library.group(key)
        mx = library.maximals(key)
        trace = covering_number_bounds(group, mx, "corrected")
        if trace.certified:
            result = sigma_exact(group, mx=mx)
            assert result.optimal and result.upper == trace.upper, key


def _count_optimal_covers(masks, full, k):
    """Number of distinct k-subsets of columns covering everything."""
    count = 0

    def dfs(cov, start, left):
        nonlocal count
        if left == 0:
            count += cov == full
            return
        for c in range(start, len(masks) - left + 1):
            dfs(cov | masks[c], c + 1, left - 1)

    dfs(0, 0, k)
    return count


def test_unique_minimal_means_single_optimal_cover():
    # the A5 order-5 instance: verdict unique_minimal at class level, and the
    # column-level enumeration finds exactly one optimal cover
    from covnum.cover import build_instance, solve
    group = library.group("A5")
    inst = build_instance(group, group.conjugacy_classes(), library.maximals("A5"),
                          elts=["cl_5,1", "cl_5,2"])
    result = solve(inst)
    assert result.optimal and result.upper == 6
    assert _count_optimal_covers(inst.column_masks, inst.full_mask(), 6) == 1
    report = verify_minimal_cover(_profile("A5"), ["cl_5,1", "cl_5,2"], ["M2"])
    assert report.verdict == "unique_minimal"

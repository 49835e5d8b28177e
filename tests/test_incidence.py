import pytest

from covnum import library
from covnum.errors import ParseError
from covnum.incidence import incidence_profile, parse_profile, render_profile


def _profile(key):
    group = library.group(key)
    return incidence_profile(group, group.conjugacy_classes(), library.maximals(key))


def test_a5_profile_entries():
    prof = _profile("A5")
    d10 = prof.subgroup_index("M2")
    a4 = prof.subgroup_index("M1")
    # each D10 holds 2 elements of each order-5 class, partitioning them
    assert prof.entries[prof.element_index("cl_5,1")][d10] == (2, 1)
    assert prof.entries[prof.element_index("cl_5,2")][d10] == (2, 1)
    # 3-cycles: 8 per A4, each lying in the stabilizers of its 2 fixed points
    assert prof.entries[prof.element_index("cl_3")][a4] == (8, 2)


@pytest.mark.parametrize("key", ["V4", "S3", "S4", "D8", "A5", "S5", "AGL18", "M11"])
def test_counting_identity_everywhere(key):
    prof = _profile(key)
    for j, ec in enumerate(prof.element_classes):
        for i, sc in enumerate(prof.subgroup_classes):
            n, k = prof.entries[j][i]
            assert n * sc.class_length == k * ec.size
            assert (n == 0) == (k == 0)


@pytest.mark.parametrize("key", ["S4", "A5", "D12"])
def test_counts_match_direct_membership(key):
    """Independent check of the profile: count |M ∩ class| with class
    membership found by brute-force conjugation, and the per-element
    multiplicity directly from element sets."""
    group = library.group(key)
    mx = library.maximals(key)
    prof = _profile(key)
    alg = group.enumeration
    assignment = group.class_assignment()
    elems = group.elements()
    brute_classes = [{x.conjugated_by(g).images for g in elems}
                     for x in (c.rep for c in group.conjugacy_classes())]
    for i, mcls in enumerate(mx.classes):
        direct = [sum(1 for x in mcls.rep.elements if elems[x].images in members)
                  for members in brute_classes]
        for j in range(len(prof.element_classes)):
            assert prof.entries[j][i][0] == direct[j]
        # multiplicity of one element of each class across all class members
        for j, ec in enumerate(prof.element_classes):
            witness = next((x for x in range(1, alg.n) if assignment[x] == j))
            k_direct = sum(1 for member in mcls.members if witness in member)
            assert prof.entries[j][i][1] == k_direct


def test_m11_profile_regression():
    prof = _profile("M11")
    rows = render_profile(prof).splitlines()
    assert rows[1].startswith("cl_11,1\t0\t60,P\t0\t0\t0")
    assert "cl_8,1\t90,P\t0\t18,P\t0\t6,P" in rows


@pytest.mark.parametrize("name", ["psl274_profile.tsv", "ominus82_profile.tsv"])
def test_fixture_round_trip_is_byte_identical(name, data_dir):
    text = (data_dir / name).read_text()
    assert render_profile(parse_profile(text)) == text


def test_parse_profile_errors():
    with pytest.raises(ParseError):
        parse_profile("")
    with pytest.raises(ParseError):
        parse_profile("bad\tM1(2)\ncl_2\t1,P\n")
    with pytest.raises(ParseError):
        parse_profile("\tM1(2)\ncl_2\t1,P\textra\n")
    with pytest.raises(ParseError):
        parse_profile("\tM1(2)\ncl_2\t0\n")  # all-zero row: size underivable
    with pytest.raises(ParseError):
        parse_profile("\tM1(2)\tM2(3)\ncl_2\t1,P\t1,P\n")  # inconsistent sizes
    with pytest.raises(ParseError, match="line 3"):
        parse_profile("\tM1(2)\n\ncl_2\tx,P\n")  # blank lines count


def test_profile_rejects_non_integral_multiplicity():
    # n * class_length / k must be an integer class size
    with pytest.raises(ParseError):
        parse_profile("\tM1(3)\ncl_2\t1_2\n")

import random
from array import array
from itertools import combinations

import pytest

from covnum import groups, library
from covnum.errors import CapExceeded, ParseError
from covnum.groups import PermGroup, class_labels, format_group_file, orbit, \
    parse_group_file
from covnum.perms import Permutation, parse_permutation
from covnum.subgroups import coset_action, minimal_normal_subgroups
from test_subgroups import a5_wr_2


def P(text, degree):
    return parse_permutation(text, degree)


def test_order_examples():
    a5 = PermGroup(5, [P("(1,2,3,4,5)", 5), P("(1,2,3)", 5)])
    assert a5.order == 60
    assert PermGroup(2, [P("(1,2)", 2)]).order == 2
    assert library.group("M11").order == 7920


def test_identity_only_generators_give_trivial_group():
    g = PermGroup(4, [Permutation.identity(4)])
    assert g.order == 1
    assert g.elements() == [Permutation.identity(4)]


def test_m11_chain_order_matches_full_enumeration():
    m11 = library.group("M11")
    assert len(m11.elements()) == 7920


def test_enumeration_cap(monkeypatch):
    monkeypatch.setattr(groups, "ENUM_CAP", 100)
    with pytest.raises(CapExceeded):
        library.m11().elements()


def test_a5_order_multiset():
    a5 = library.group("A5")
    counts = {}
    for p in a5.elements():
        counts[p.order] = counts.get(p.order, 0) + 1
    assert counts == {1: 1, 2: 15, 3: 20, 5: 24}


def _brute_force_closure(group):
    identity = Permutation.identity(group.degree)
    seen = {identity.images}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in group.generators:
                y = tuple(g.images[i] for i in x.images)
                if y not in seen:
                    seen.add(y)
                    new.append(Permutation(y))
        frontier = new
    return seen


@pytest.mark.parametrize("key", [k for k in library.names()])
def test_membership_agrees_with_brute_force_closure(key):
    group = library.group(key)
    if group.order > 2000:
        pytest.skip("closure check limited to order <= 2000")
    closure = _brute_force_closure(group)
    assert len(closure) == group.order
    assert all(Permutation(images) in group for images in closure)
    # and a non-member is rejected
    if group.degree >= 2:
        odd = Permutation((1, 0) + tuple(range(2, group.degree)))
        assert (odd in group) == (odd.images in closure)


def _agl32_quotient():
    """AGL(3,2)/N for its minimal normal subgroup N, the regular group of
    degree 168 that the maximal route descends into."""
    agl = library.group("AGL32")
    return coset_action(minimal_normal_subgroups(agl)[0])[0]


@pytest.mark.parametrize("make", [lambda: library.group("M11"), a5_wr_2, _agl32_quotient],
                         ids=["M11", "A5wr2", "AGL32-quotient-168"])
def test_chain_membership_past_the_closure_cap(make):
    """Chains that the closure check above skips: two groups over its order
    cap, and the regular quotient of degree 168, one level of 168
    transversal tuples. The chain's order is the enumeration's size, every
    element is a member, and a transposition, or a permutation drawn from
    S_d with a fixed seed, is a member exactly when the enumeration lists
    it."""
    group = make()
    enum = group.enumeration
    assert group.order == enum.n
    assert all(p in group for p in enum.elems)
    d = group.degree
    for a, b in combinations(range(d), 2):
        images = list(range(d))
        images[a], images[b] = b, a
        assert (Permutation(images) in group) == (tuple(images) in enum.index)
    rng = random.Random(2018)
    for _ in range(300):
        images = rng.sample(range(d), d)
        assert (Permutation(images) in group) == (tuple(images) in enum.index)


def test_chain_ignores_identity_and_repeated_generators():
    a, b = P("(1,2,3,4,5)", 5), P("(1,2,3)", 5)
    one = Permutation.identity(5)
    a5 = PermGroup(5, [a, b])
    for gens in ([one, a, one, b], [a, a, b, a, b]):
        group = PermGroup(5, gens)
        assert group.order == 60
        assert {p.images for p in group.elements()} == {p.images for p in a5.elements()}
        assert all((p in group) == (p in a5) for p in PermGroup(5, [a, P("(1,2)", 5)]).elements())


def test_chain_of_degree_one():
    for gens in ([], [Permutation.identity(1)], [Permutation.identity(1)] * 2):
        group = PermGroup(1, gens)
        assert group.order == 1
        assert Permutation.identity(1) in group
        assert group.elements() == [Permutation.identity(1)]
        assert Permutation.identity(2) not in group


def test_conjugacy_classes_a5():
    table = library.group("A5").conjugacy_classes()
    data = [(c.element_order, c.size) for c in table]
    assert data == [(5, 12), (5, 12), (3, 20), (2, 15)]
    assert [c.label for c in table] == ["cl_5,1", "cl_5,2", "cl_3", "cl_2"]


def test_conjugacy_classes_v4_singletons():
    table = library.group("V4").conjugacy_classes()
    assert len(table) == 3
    assert all(c.size == 1 and c.element_order == 2 for c in table)


def test_conjugacy_classes_s5():
    table = library.group("S5").conjugacy_classes()
    assert len(table) == 6
    assert sorted(c.element_order for c in table) == [2, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("key", ["V4", "S3", "S4", "A5", "D12", "PSL27"])
def test_class_sizes_partition_group(key):
    group = library.group(key)
    table = group.conjugacy_classes()
    assert table.total == group.order - 1
    assert all(group.order % c.size == 0 for c in table)


@pytest.mark.parametrize("key", [k for k in library.names()
                                 if library.group(k).order <= 360])
def test_class_assignment_is_conjugacy(key):
    # reference: the conjugates g^-1 x g of one member x of each class, over
    # every g in G; the classes partition G, so x and y share a class exactly
    # when y is a conjugate of x
    group = library.group(key)
    elems = group.elements()
    assignment = group.class_assignment()
    members: dict[int, set[int]] = {}
    for i, c in enumerate(assignment):
        members.setdefault(c, set()).add(i)
    assert members[-1] == {0}
    for ids in members.values():
        x = elems[min(ids)]
        conjugates = {group.enumeration.index[x.conjugated_by(g).images] for g in elems}
        assert conjugates == ids


def orbit_class_table(group):
    """Reference class table: each class is the orbit() breadth-first search
    of its lowest unassigned element under the conjugation maps; classes are
    sorted by descending element order and size, then representative, and
    labelled by class_labels. Returns (label, representative images, size,
    element order) per class, and the class index of each element id."""
    elems, maps = group.elements(), group.enumeration.conjugation_maps
    raw, assigned = [], {0}
    for i in range(1, len(elems)):
        if i not in assigned:
            cls = orbit(i, lambda x: [m[x] for m in maps])
            assigned.update(cls)
            rep = elems[min(cls)]
            raw.append((rep.images, len(cls), rep.order, cls))
    raw.sort(key=lambda t: (-t[2], -t[1], t[0]))
    labels = class_labels([(order, size) for _, size, order, _ in raw])
    assignment = [-1] * len(elems)
    for pos, (_, _, _, cls) in enumerate(raw):
        for j in cls:
            assignment[j] = pos
    return [(label, rep, size, order) for label, (rep, size, order, _) in zip(labels, raw)], \
        assignment


def check_classes_against_orbit_reference(group):
    table = [(c.label, c.rep.images, c.size, c.element_order) for c in group.conjugacy_classes()]
    assert (table, group.class_assignment()) == orbit_class_table(group)


def test_class_table_matches_the_orbit_reference():
    """The class table, grown one frontier of conjugates at a time, is the
    one an orbit() search per class gives: labels, representatives, sizes,
    element orders and the class of every element."""
    for group in [library.group(key) for key in library.names()] + library.solvable_suite():
        check_classes_against_orbit_reference(group)


@pytest.mark.parametrize("n, count", [(1, 1), (7920, 7920), (65536, 65536), (65536, 0),
                                      (65536, 1), (65537, 1000), (10**6, 0), (10**6, 1)])
def test_id_array_is_the_entry_by_entry_array(n, count):
    """_id_array packs ids in one call into the array that array(code, ids)
    fills entry by entry: type code H up to 65,536 elements, I above, here
    on shuffled synthetic ids with no large group built."""
    ids = random.Random(n + count).sample(range(n), count)
    code = "H" if n <= 65536 else "I"
    packed = groups._id_array(n, tuple(ids))
    assert packed.typecode == code
    assert packed == array(code, ids)
    assert groups._id_array(n, array(code, ids)) == packed


def test_conjugation_maps_and_inverses_match_permutations():
    """The maps read off the id columns send x to g^-1 x g, as
    Permutation.conjugated_by gives it, for each generator g. The flip
    x -> g x g^-1 gives the same classes, but wrong normalizer words and
    atom moves in the lattice walk. Each inverse generator column sends x
    to x g^-1."""
    for group in [library.group(key) for key in library.names()] + library.solvable_suite():
        elems, index = group.elements(), group.enumeration.index
        enum = group.enumeration
        assert [list(col) for col in enum.inv_gen_cols] == \
            [[index[(p * g.inverse()).images] for p in elems] for g in group.generators]
        assert enum.conjugation_maps == [[index[p.conjugated_by(g).images] for p in elems]
                                         for g in group.generators]


def test_orbit_keeps_discovery_order():
    assert list(orbit(0, lambda x: [(x + 1) % 5, 2 * x % 5])) == [0, 1, 2, 3, 4]
    assert list(orbit(3, lambda x: [3 * x % 7])) == [3, 2, 6, 4, 5, 1]
    assert list(orbit("a", lambda x: [])) == ["a"]


def test_classes_conjugation_invariant():
    a5 = library.group("A5")
    t = P("(1,2)", 5)  # conjugating A5 by an odd permutation relabels it
    moved = PermGroup(5, [g.conjugated_by(t) for g in a5.generators])
    original = sorted((c.element_order, c.size) for c in a5.conjugacy_classes())
    relabeled = sorted((c.element_order, c.size) for c in moved.conjugacy_classes())
    assert original == relabeled


def test_is_cyclic_matches_element_orders(monkeypatch):
    # a group is cyclic when some element has the group's order; a
    # nonabelian group is answered without reading its elements
    built = [library.group(key) for key in library.names() if key != "M11"]
    built += library.solvable_suite() + [PermGroup(3, []), library.cyclic(8)]
    for group in built:
        assert group.is_cyclic() == any(p.order == group.order for p in group.elements())
    m11 = PermGroup(11, library.group("M11").generators)
    monkeypatch.setattr(PermGroup, "elements", lambda *_: pytest.fail("enumerated"))
    assert not m11.is_cyclic()


def test_element_orders_divide_group_order():
    for key in ["S4", "A5", "Q8", "F21"]:
        group = library.group(key)
        assert all(group.order % p.order == 0 for p in group.elements())


def test_group_file_round_trip():
    m11 = library.group("M11")
    text = format_group_file(m11)
    again = parse_group_file(text)
    assert again.order == m11.order
    assert format_group_file(again) == text


def test_header_only_group_file_is_the_trivial_group():
    g = parse_group_file("degree 4\n")
    assert g.degree == 4 and g.order == 1 and g.elements() == [Permutation.identity(4)]
    text = format_group_file(g)
    assert text == "degree 4\n()\n"
    assert format_group_file(parse_group_file(text)) == text


def test_group_file_comments_and_blanks():
    g = parse_group_file("# a comment\n\ndegree 3\n(1,2,3)  # rotation\n\n(1,2)\n")
    assert g.order == 6


def test_group_file_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_group_file("degrees 3\n(1,2)\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_group_file("degree 3\n(1,4)\n")
    with pytest.raises(ParseError):
        parse_group_file("")

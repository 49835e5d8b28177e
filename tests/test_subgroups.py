import gc
import random
import weakref

import pytest

from covnum import library, subgroups
from covnum.errors import BudgetExceeded, IngestInvalid, NoSupplement, ParseError
from covnum.groups import PermGroup, format_group_file, parse_group_file
from covnum.perms import Permutation, format_cycles, parse_permutation
from covnum.subgroups import (
    algebra,
    all_subgroups,
    coset_action,
    derived_subgroup_ids,
    format_maximal_file,
    is_primitive_monolithic,
    is_solvable,
    maximal_classes_computed,
    maximal_classes_from_file,
    min_supplement_index,
    minimal_normal_subgroups,
    normal_core,
    subgroup_from_gens,
)


def test_all_subgroups_counts():
    assert len(all_subgroups(library.group("V4"))) == 5
    assert len(all_subgroups(library.group("S3"))) == 6
    assert len(all_subgroups(library.group("A5"))) == 59


def test_a5_lattice_composition():
    by_order = {}
    for s in all_subgroups(library.group("A5")):
        by_order[s.order] = by_order.get(s.order, 0) + 1
    # 1, 15 C2, 10 C3, 5 V4, 6 C5, 10 S3, 6 D10, 5 A4, A5
    assert by_order == {1: 1, 2: 15, 3: 10, 4: 5, 5: 6, 6: 10, 10: 6, 12: 5, 60: 1}


def test_lattice_budget():
    with pytest.raises(BudgetExceeded):
        all_subgroups(library.group("M11"))


def test_lattice_closed_under_conjugation_and_intersections():
    group = library.group("S4")
    subs = all_subgroups(group)
    sets = {s.elements for s in subs}
    alg = algebra(group)
    for s in subs:
        for gi in range(len(group.generators)):
            assert alg.conjugate_set(s.elements, gi) in sets
    rng = random.Random(7)
    pool = list(sets)
    for _ in range(100):
        a, b = rng.choice(pool), rng.choice(pool)
        assert a & b in sets


def test_maximal_classes_a5():
    mx = maximal_classes_computed(library.group("A5"))
    assert mx.provenance == "computed"
    data = [(c.rep.order, c.class_length, c.index, c.self_normalizing) for c in mx]
    assert data == [(12, 5, 5, True), (10, 6, 6, True), (6, 10, 10, True)]


def test_maximal_classes_v4():
    mx = maximal_classes_computed(library.group("V4"))
    assert [(c.class_length, c.index) for c in mx] == [(1, 2)] * 3


def test_m11_ingestion():
    mx = library.maximals("M11")
    assert mx.provenance == "ingested"
    assert [c.index for c in mx] == [11, 12, 55, 66, 165]
    assert [c.class_length for c in mx] == [11, 12, 55, 66, 165]
    assert mx.subgroup_count() == 309
    # the local maximality check decides every coset representative
    assert [c.verification for c in mx.classes] == [
        "exhaustive(10)", "exhaustive(11)", "exhaustive(54)", "exhaustive(65)",
        "exhaustive(164)"]


def test_ingest_rejects_outside_generator():
    group = library.group("A5")
    text = "[class 1]\nindex 5\nlength 5\n(1,2)\n"  # odd permutation, not in A5
    with pytest.raises(IngestInvalid):
        maximal_classes_from_file(group, text)


def test_ingest_rejects_non_maximal():
    group = library.group("A5")
    text = "[class 1]\nindex 30\nlength 15\n(1,2)(3,4)\n"  # C2 is far from maximal
    with pytest.raises(IngestInvalid):
        maximal_classes_from_file(group, text)


def test_ingest_rejects_wrong_declarations():
    group = library.group("A5")
    a4 = next(c for c in maximal_classes_computed(group) if c.rep.order == 12)
    gens = "\n".join(format_cycles(g) for g in a4.rep.generators)
    with pytest.raises(IngestInvalid, match="index"):
        maximal_classes_from_file(group, f"[class 1]\nindex 6\nlength 5\n{gens}\n")
    with pytest.raises(IngestInvalid, match="length"):
        maximal_classes_from_file(group, f"[class 1]\nindex 5\nlength 6\n{gens}\n")
    # a section error names the line of the section's own header
    with pytest.raises(ParseError, match="line 1:"):
        maximal_classes_from_file(group, "[class 1]\nindex 5\n")
    with pytest.raises(ParseError, match="line 1:"):
        maximal_classes_from_file(group, f"[class 1]\nindex 5\n[class 2]\n{gens}\n")
    second = 4 + len(a4.rep.generators)
    with pytest.raises(ParseError, match=f"line {second}:"):
        maximal_classes_from_file(
            group, f"[class 1]\nindex 5\nlength 5\n{gens}\n[class 2]\nindex 5\n")


SMALL_GROUPS = [k for k in library.names() if library.group(k).order <= 720]


def _one_class_file(group, sub):
    length = len(algebra(group).set_orbit(sub.elements))
    gens = "\n".join(format_cycles(g) for g in sub.generators)
    return f"[class 1]\nindex {sub.index}\nlength {length}\n{gens}\n"


@pytest.mark.parametrize("key", SMALL_GROUPS)
def test_ingest_maximality_check_matches_lattice(key):
    """The ingest check accepts a proper subgroup class representative
    exactly when no subgroup of the lattice lies strictly between it and
    the group."""
    group = library.group(key)
    subs = all_subgroups(group)
    full = subs[-1].elements
    seen = set()
    for sub in subs[:-1]:
        if sub.elements in seen:
            continue
        seen.update(algebra(group).set_orbit(sub.elements))
        text = _one_class_file(group, sub)
        if any(sub.elements < s.elements < full for s in subs):
            with pytest.raises(IngestInvalid, match="not maximal"):
                maximal_classes_from_file(group, text)
        else:
            (cls,) = maximal_classes_from_file(group, text).classes
            assert cls.verification == f"exhaustive({sub.index - 1})"


def _class_key(cls):
    return (cls.label, cls.class_length, cls.index, cls.members, cls.rep.generators)


@pytest.mark.parametrize("key", SMALL_GROUPS)
def test_ingest_of_formatted_maximals_round_trips(key):
    group = library.group(key)
    mx = library.maximals(key)
    again = maximal_classes_from_file(group, format_maximal_file(mx))
    assert [_class_key(c) for c in again] == [_class_key(c) for c in mx]


def test_maximality_check_probes_once_per_double_coset(monkeypatch):
    """M11's maximal classes have 2, 2, 3, 4 and 8 double cosets (the ranks
    of its actions on 11, 12, 55, 66 and 165 points), so the ingest builds
    one probe group per nontrivial double coset: 1 + 1 + 2 + 3 + 7, against
    one per coset (304) if each coset were probed."""
    built = []

    def counting(*args, **kwargs):
        built.append(None)
        return PermGroup(*args, **kwargs)

    monkeypatch.setattr(subgroups, "PermGroup", counting)
    maximal_classes_from_file(library.group("M11"), library.m11_maximals_text())
    assert len(built) == 14


def _subgroup(group, *gen_texts):
    gens = [parse_permutation(t, group.degree) for t in gen_texts]
    return subgroup_from_gens(group, gens)


def test_normal_core_examples():
    s4 = library.group("S4")
    stab = _subgroup(s4, "(1,2,3)", "(1,2)")  # S3 fixing point 4
    assert stab.order == 6
    assert normal_core(s4, stab).order == 1
    d8 = _subgroup(s4, "(1,2,3,4)", "(1,3)")
    assert d8.order == 8
    core = normal_core(s4, d8)
    assert core.order == 4 and core.is_normal()
    v4 = _subgroup(s4, "(1,2)(3,4)", "(1,3)(2,4)")
    assert normal_core(s4, v4).elements == v4.elements  # normal subgroup is its own core


def test_coset_action_examples():
    s4 = library.group("S4")
    d8 = _subgroup(s4, "(1,2,3,4)", "(1,3)")
    image, kernel = coset_action(s4, d8)
    assert image.degree == 3 and image.order == 6
    assert kernel.order == 4
    full = _subgroup(s4, "(1,2,3,4)", "(1,2)")
    image, kernel = coset_action(s4, full)
    assert image.degree == 1 and kernel.order == 24
    a5 = library.group("A5")
    a4 = _subgroup(a5, "(1,2,3)", "(1,2)(3,4)")
    image, kernel = coset_action(a5, a4)
    assert image.degree == 5 and image.order == 60 and kernel.order == 1


def test_kernel_equals_normal_core_for_maximals():
    # reference: x lies in the kernel when r*x*r^-1 lies in H for every r in
    # G, so that x fixes every right coset H*r
    for key in ["S4", "A5", "D12", "PSL27"]:
        group = library.group(key)
        alg = algebra(group)
        for cls in maximal_classes_computed(group):
            image, kernel = coset_action(group, cls.rep)
            brute = {x for x in range(alg.n)
                     if all(alg.mult(alg.mult(r, x), alg.inv[r]) in cls.rep.elements
                            for r in range(alg.n))}
            assert kernel.elements == brute
            assert image.order * kernel.order == group.order


def _min_block_size(group):
    """Smallest nontrivial block size of a transitive action, by closing
    {0, x} under the generators for every x."""
    n = group.degree
    best = n
    for x in range(1, n):
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        union(0, x)
        changed = True
        while changed:
            changed = False
            for g in group.generators:
                for a in range(n):
                    b = find(a)
                    if find(g(a)) != find(g(b)):
                        union(g(a), g(b))
                        changed = True
        size = sum(1 for a in range(n) if find(a) == find(0))
        if size < best:
            best = size
    return best


def test_core_free_maximal_coset_actions_are_primitive():
    for key in ["A5", "S4", "S5", "PSL27"]:
        group = library.group(key)
        for cls in maximal_classes_computed(group):
            if cls.index > 12:
                continue
            image, kernel = coset_action(group, cls.rep)
            if kernel.order == 1:
                assert _min_block_size(image) == image.degree


def test_minimal_normal_subgroups():
    assert [s.order for s in minimal_normal_subgroups(library.group("S4"))] == [4]
    assert [s.order for s in minimal_normal_subgroups(library.group("A5"))] == [60]
    assert [s.order for s in minimal_normal_subgroups(library.group("V4"))] == [2, 2, 2]
    assert [s.order for s in minimal_normal_subgroups(library.group("A5xC2"))] == [2, 60]


def test_is_primitive_monolithic():
    a5 = library.group("A5")
    assert is_primitive_monolithic(a5, maximal_classes_computed(a5)) == (True, True, 5)
    s4 = library.group("S4")
    assert is_primitive_monolithic(s4, maximal_classes_computed(s4)) == (True, True, 4)
    v4 = library.group("V4")
    assert is_primitive_monolithic(v4, maximal_classes_computed(v4)) == (False, False, None)


def test_is_solvable():
    assert is_solvable(library.group("S4"))
    assert not is_solvable(library.group("A5"))
    assert is_solvable(library.group("D8"))
    assert not is_solvable(library.group("A5xC2"))


def test_min_supplement_index():
    a5 = library.group("A5")
    full = subgroup_from_gens(a5, list(a5.generators))
    assert min_supplement_index(a5, full, maximal_classes_computed(a5)) == 5
    s5 = library.group("S5")
    a5_in_s5 = _subgroup(s5, "(1,2,3)", "(1,2,3,4,5)")
    assert a5_in_s5.order == 60
    assert min_supplement_index(s5, a5_in_s5, maximal_classes_computed(s5)) == 5
    c4 = PermGroup(4, [parse_permutation("(1,2,3,4)", 4)], name="C4")
    c2 = _subgroup(c4, "(1,3)(2,4)")
    with pytest.raises(NoSupplement):
        min_supplement_index(c4, c2, maximal_classes_computed(c4))


def test_dropped_group_is_collected():
    group = parse_group_file(format_group_file(library.group("S4")))
    assert len(all_subgroups(group)) == 30
    assert [s.order for s in minimal_normal_subgroups(group)] == [4]
    ref = weakref.ref(group)
    del group
    gc.collect()
    assert ref() is None


def _is_normal_by_conjugation(group, images):
    return all(Permutation(x).conjugated_by(g).images in images
               for g in group.generators for x in images)


@pytest.mark.parametrize("key", [k for k in library.names()
                                 if library.group(k).order <= 720])
def test_normal_closure_is_least_normal_overgroup(key):
    """The normal closure of each class representative equals the
    intersection of all normal subgroups of the lattice that contain it;
    normality is checked here by conjugating permutations."""
    group = library.group(key)
    elems = group.elements()
    normals = []
    for sub in all_subgroups(group):
        images = frozenset(elems[i].images for i in sub.elements)
        if _is_normal_by_conjugation(group, images):
            normals.append(images)
    alg = algebra(group)
    for cls in group.conjugacy_classes():
        expected = frozenset.intersection(
            *(n for n in normals if cls.rep.images in n))
        closure = alg.normal_closure([group.element_index[cls.rep.images]])
        assert frozenset(elems[i].images for i in closure) == expected, cls.label


def _generated(perms, degree):
    """Brute-force closure of a set of permutations under products."""
    identity = Permutation.identity(degree)
    seen = {identity.images}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in perms:
                y = x * g
                if y.images not in seen:
                    seen.add(y.images)
                    new.append(y)
        frontier = new
    return seen


@pytest.mark.parametrize("key", ["S4", "A5"])
def test_derived_subgroup_is_generated_by_all_commutators(key):
    group = library.group(key)
    elems = group.elements()
    for sub in all_subgroups(group):
        members = [elems[i] for i in sub.elements]
        commutators = {a.inverse() * b.inverse() * a * b
                       for a in members for b in members}
        derived = derived_subgroup_ids(group, sub.elements)
        assert {elems[i].images for i in derived} == \
            _generated(commutators, group.degree), sub
    assert derived_subgroup_ids(group) == derived_subgroup_ids(
        group, frozenset(range(group.order)))

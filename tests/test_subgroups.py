import gc
import hashlib
import random
import weakref
from importlib import resources
from operator import itemgetter

import pytest

from covnum import library, subgroups
from covnum.errors import BudgetExceeded, IndexTooLarge, IngestInvalid, NoSupplement, \
    OutOfRange, ParseError
from covnum.groups import Enumeration, PermGroup, format_group_file, parse_group_file
from covnum.perms import Permutation, format_cycles, parse_permutation
from covnum.subgroups import (
    LATTICE_MAX_ORDER,
    Subgroup,
    all_subgroups,
    complements,
    coset_action,
    format_maximal_file,
    is_primitive_monolithic,
    is_solvable,
    maximal_classes_computed,
    maximal_classes_from_file,
    min_supplement_index,
    minimal_normal_subgroups,
    normal_core,
    normal_subgroups,
    subgroup_from_gens,
)


def test_all_subgroups_counts():
    assert len(all_subgroups(library.group("V4"))) == 5
    assert len(all_subgroups(library.group("S3"))) == 6
    assert len(all_subgroups(library.group("A5"))) == 59


@pytest.mark.parametrize("key, count", [
    ("A5", 59), ("S5", 156), ("PSL27", 179), ("A6", 501), ("PGL27", 413),
    ("S6", 1455), ("A5xC2", 164), ("AGL32", 3299)])
def test_lattice_sizes(key, count):
    """Subgroup counts of the whole lattice; the first five are published."""
    assert len(all_subgroups(library.group(key))) == count


def reference_subgroups(group):
    """Every subgroup, by an unpruned join closure written apart from the
    walk: each class representative found is joined with every cyclic
    subgroup of prime-power order outside it, with no orbit pruning and no
    bail-out, and each new join adds its whole conjugation orbit. A subgroup
    is the join of the prime-power cyclic subgroups inside it, one at a
    time, so some representative reaches each class."""
    alg = group.enumeration
    atoms = {}
    for x in range(1, alg.n):
        k, p = alg.elems[x].order, 2
        while k % p:
            p += 1
        while k % p == 0:
            k //= p
        if k == 1:
            atoms.setdefault(alg.closure([x]), x)
    found = {frozenset({0})}
    reps = [(frozenset({0}), [])]
    for ids, gens in reps:  # grows as joins find new classes
        for x in atoms.values():
            if x not in ids:
                joined = alg.join(ids, gens + [x])
                if joined not in found:
                    found.update(alg.conjugation_orbit(joined))
                    reps.append((joined, gens + [x]))
    return found


@pytest.mark.parametrize("key", ["S4", "A5", "S5", "PSL27", "A6", "PGL27", "S6", "A5xC2"])
def test_lattice_matches_unpruned_reference(key):
    group = library.group(key)
    assert [sub.elements for sub in all_subgroups(group)] == \
        sorted(reference_subgroups(group), key=lambda s: (len(s), sorted(s)))


def _record_walk_joins(monkeypatch, group):
    """Walk the group's lattice and return its capped join calls as
    (H's generator ids, ids, gen_ids, bail_above, H's proper-overgroup cap,
    result). H, the class representative being joined, is keyed by the
    generators it was admitted with: every generator but the atom's."""
    join = Enumeration.join
    overgroup_cap = subgroups._overgroup_cap(group)
    subs = {}
    calls = []

    def recording(self, ids, gen_ids, bail_above=None):
        joined = join(self, ids, gen_ids, bail_above)
        if bail_above is not None:
            h = tuple(gen_ids[:-1])
            if h not in subs:
                subs[h] = join(self, [0], list(h))
            cap = overgroup_cap(subs[h])
            calls.append((h, ids, gen_ids, bail_above, cap, joined))
        return joined

    monkeypatch.setattr(Enumeration, "join", recording)
    subgroups._lattice_classes(group)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("key, completed, at_top, inside", [
    pytest.param("S6", 343, 272, 472, id="S6"),
    pytest.param("AGL32", 873, 221, 1494, id="AGL32")])
def test_lattice_walk_joins_once_per_normalizer_orbit(monkeypatch, key, completed,
                                                      at_top, inside):
    """The walk joins each class representative H with one atom per
    N_G(H)-orbit of atoms outside H, against 12,498 (S6) and 43,362 (AGL32)
    joins with every atom outside H. It skips the join with a when an atom
    inside H already joins a to the whole group: 1,411 and 3,663 joins
    without that rule, 502 and 1,150 of them stopping at G. It skips the
    atoms of earlier atom classes while an atom class is joined, and caps a
    join by the smallest proper join from H that holds a: without these two
    rules, 1,181 and 2,734 joins, of which 909 and 2,513 completed and 272
    and 221 stopped at G. A join either completes, stops at G (the cap of
    H's proper overgroups), or stops inside a known overgroup; the stops at
    G are the same with and without the two rules."""
    calls = _record_walk_joins(monkeypatch, library.group(key))
    outcomes = [0, 0, 0]
    for *_, bail_above, cap, joined in calls:
        outcomes[0 if joined is not None else 1 if bail_above == cap else 2] += 1
    assert outcomes == [completed, at_top, inside]


@pytest.mark.parametrize("key", ["S5", "PSL27", "A6", "PGL27", "S6", "A5xC2"])
def test_join_stopped_inside_an_overgroup_is_that_overgroup(monkeypatch, key):
    """A join that stops below H's proper-overgroup cap is, with no cap, a
    join that the same H completed earlier: the overgroup it was capped by."""
    group = library.group(key)
    alg = group.enumeration
    completed = {}
    stops = 0
    for h, ids, gen_ids, bail_above, cap, joined in _record_walk_joins(monkeypatch, group):
        if joined is not None:
            completed.setdefault(h, []).append(joined)
        elif bail_above < cap:
            stops += 1
            assert alg.join(ids, gen_ids) in completed.get(h, [])
    assert stops > 0


# sha256 of [([sorted(ids) for ids in orbit], maximal) for orbit, maximal in walk]
WALK_SHA256 = {
    "V4": "2bb83aab1e951cf17610f5df98065563eb1bc2dbf849e8532c09c50bc162171f",
    "S3": "8bbc584cdb3775aa80ea0a1ead9ba23292a9581dfeefa9129d5e4d9894697dd1",
    "S4": "22e05566e3418afbb1fded94e567d11c339c6f7cf4607425dc428185650d9fed",
    "S5": "135ba996197ecb17702b53cfcbaace849827d3b003bef97ca2fe9a701449ed8a",
    "S6": "622f97d7e30e083fe395cc39d3f3042d8c3a4102fbe8ac37d4abee03ab34439d",
    "A4": "8f939dd279365b339a298d79836ce93990c9824677b0efd9294ce58eb1aedfaf",
    "A5": "c2a51655b2625e0b355565507e8e3f246bdbf3755de817d3f647146683f9d87e",
    "A6": "f0fe9eb46c879fd62d05ddc6da27008592e032fc614389efa960bf1f6a920a9d",
    "C5": "2978fc13150f00e28edf8c48de6f7695c2e8d6c0ddd6ab597e3718ea65867744",
    "C6": "b84de15b8797b90f39aa423cfb2a6b87e5d00e9650b56f7aa39b598615b8e3e3",
    "D8": "b939dc65181971ab3f9e4dc3fb6adfe41ec8aa3e06f8d38edb0c2e79a1fee061",
    "D10": "26f4cc90518f989718128627cf02b3d8a8ba524681aab4ab19ec9ddd07637b4f",
    "D12": "cca11614821a3480eb26d01545539a818b0232bf1d771c8769ea5581b14ae231",
    "Q8": "b0866f679bac8dd7e10176e57d2128e0019b2c2b483aca6941a42e03287b5b97",
    "F21": "e668d950f4517ae03809e4e58aaf74c5bf954d5d3421a1a3570a0606a4bf4e0a",
    "C3xC3": "8f8379891544fe90df93860c7a2e46a233797e731e8c858e52ff55d2be6d4fb3",
    "PSL27": "bf3db87b6742546451a72be2bae32a04a5043fb390fb129f475aeec279c38fb9",
    "PGL27": "c224c9d9d095865408729623eac95810e93f94734c653c18557c5360f1608ece",
    "AGL13": "8bbc584cdb3775aa80ea0a1ead9ba23292a9581dfeefa9129d5e4d9894697dd1",
    "AGL14": "9c3b655b8472b5412a9a606846d141e10fec43c62688287dc3c9b478b9c29fdd",
    "AGL15": "89d9df26c73134ebe0ced8327d75c3a716b98edba9f042b039faa84e63bddf6a",
    "AGL17": "72176a65975a648b22d7e58f00448edcab1977e087f5f339e1b2e8e689863b35",
    "AGL18": "5b7166c23c735b1ebb7ecf0bef8efef3034bcda6951502cab3d454414dcd5792",
    "AGL19": "08fbf94c5c6db32e965dcecf47670dc4f407a17a1457ddfb5898d3c00573f65c",
    "AGL32": "223c7ddb4b1abc37a7f691d552862c9ea86469d4ffca1060eac65940142ae44c",
    "A5xC2": "721324d55d5787d00bfaeac141d0be07329f5956ad82336c7ab311d05280046e",
}
WITHIN_SHA256 = {
    "S5": "601769024135e18727ac94e43eb74907a61d20392e649c9580a87de80d948c09",
    "S6": "4ac873c9912f77ae55007998e9d0a6321225105cbdd6975b0cd7d845c7ba1d87",
    "PGL27": "cc4750203ad3f2ca52f2c358edc53991c0311f44c200e80cefbee906c4a5fd91",
}
# the same key within N = A5 x A5 of A5 wr 2, at a 10,000 cap
A5_WR_2_WITHIN_SHA256 = "3c8508f959fade0bcc78a6b42170ceb5f83a851fe0c8f6b1eab6069a25b7624b"


def _walk_sha256(walk):
    key = [([sorted(ids) for ids in orbit], maximal) for orbit, maximal in walk]
    return hashlib.sha256(repr(key).encode()).hexdigest()


def test_walk_pins_cover_every_library_group_within_the_cap():
    assert sorted(WALK_SHA256) == sorted(
        k for k in library.names() if library.group(k).order <= LATTICE_MAX_ORDER)


@pytest.mark.parametrize("key", list(WALK_SHA256))
def test_lattice_walk_output_is_pinned(key):
    """The walk's classes, their order, their members and their maximal
    flags, byte for byte, on every library group within the lattice cap."""
    assert _walk_sha256(subgroups._lattice_classes(library.group(key))) == WALK_SHA256[key]


@pytest.mark.parametrize("key", list(WITHIN_SHA256))
def test_walk_within_a_normal_subgroup_is_pinned(key):
    """The same pin for the walk within G's first minimal normal subgroup."""
    group = library.group(key)
    normal = minimal_normal_subgroups(group)[0].elements
    assert _walk_sha256(subgroups._lattice_classes(group, within=normal)) == \
        WITHIN_SHA256[key]


def a5_wr_2():
    """A5 wr 2 on 10 points, of order 7200: its one minimal normal subgroup
    is A5 x A5, a direct power, whose subgroups include diagonals."""
    gens = ["(1,2,3,4,5)", "(1,2,3)", "(1,6)(2,7)(3,8)(4,9)(5,10)"]
    return PermGroup(10, [parse_permutation(t, 10) for t in gens], name="A5 wr 2")


def test_walk_within_the_socle_of_a5_wr_2_is_pinned():
    """The same pin within a minimal normal subgroup that is not simple."""
    group = a5_wr_2()
    (normal,) = minimal_normal_subgroups(group)
    walk = subgroups._lattice_classes(group, 10_000, normal.elements)
    assert _walk_sha256(walk) == A5_WR_2_WITHIN_SHA256


def _least_factorial_multiple(n):
    """The least k with n dividing k!, by a plain loop over k! mod n."""
    k, residue = 1, 1 % n
    while residue:
        k += 1
        residue = residue * k % n
    return k


def test_kempner_is_the_least_k_whose_factorial_n_divides():
    assert [subgroups._kempner(n) for n in (1, 60, 168, 360, 7920)] == [1, 5, 7, 6, 11]
    assert [subgroups._kempner(n) for n in range(1, 5001)] == \
        [_least_factorial_multiple(n) for n in range(1, 5001)]


def check_overgroup_cap_against_lattice(group):
    """For each class representative H < G of the walk, the largest proper
    subgroup of G that contains H, read from the whole lattice, has at most
    _overgroup_cap's order. Returns how many of those caps are below
    |G|/q, q the least prime dividing [G:H]."""
    n = group.order
    subs = [sub.elements for sub in all_subgroups(group) if sub.order < n]
    overgroup_cap = subgroups._overgroup_cap(group)
    below = 0
    for h in (orbit[0] for orbit, _ in subgroups._lattice_classes(group)):
        if len(h) == n:
            continue
        cap = overgroup_cap(h)
        assert max(len(s) for s in subs if h <= s) <= cap
        below += cap < n // subgroups.smallest_prime_factor(n // len(h))
    return below


@pytest.mark.parametrize("key", list(WALK_SHA256))
def test_overgroup_cap_bounds_every_proper_overgroup(key):
    """The walk's cap on H's proper overgroups holds on the whole lattice of
    every library group within the lattice cap. On AGL32, A6 and S6 it is
    below |G|/q for some H."""
    below = check_overgroup_cap_against_lattice(library.group(key))
    if key in ("AGL32", "A6", "S6"):
        assert below > 0


@pytest.mark.parametrize("key", ["S6", "AGL32"])
def test_all_subgroups_builds_generators_only_for_the_walk(monkeypatch, key):
    """A subgroup's generating set is built when it is first read, and the
    walk joins from the generators of the join that admitted each class, so
    all_subgroups builds none, against 1,501 (S6) and 3,384 (AGL32) when
    every subgroup it returns got one."""
    made = []
    generating_ids = Enumeration.generating_ids

    def counting(self, ids):
        made.append(None)
        return generating_ids(self, ids)

    monkeypatch.setattr(Enumeration, "generating_ids", counting)
    subs = all_subgroups(library.group(key))
    assert made == []
    assert subs[1].generators and len(made) == 1


@pytest.mark.parametrize("key", ["S5", "S6", "PGL27", "A5xA5"])
def test_walk_within_a_normal_subgroup_gives_its_g_classes(key):
    """Walked within G's first minimal normal subgroup N, on G's element ids,
    the lattice is the G-conjugacy classes of the subgroups of N, each as
    its whole orbit, and a class is flagged maximal exactly when it is
    maximal in N."""
    group = library.group(key) if key in library.names() else PRODUCTS[key]()
    alg = group.enumeration
    normal = minimal_normal_subgroups(group)[0].elements
    inside = [s.elements for s in all_subgroups(group) if s.elements <= normal]
    expected = {}
    for ids in inside:
        orbit = frozenset(alg.conjugation_orbit(ids))
        expected[orbit] = ids != normal and not any(ids < k < normal for k in inside)
    walked = subgroups._lattice_classes(group, within=normal)
    assert {frozenset(orbit): maximal for orbit, maximal in walked} == expected
    assert len(walked) == len(expected)


def _generated_group():
    """A6 again, but on 7 points from three seeded random permutations, so
    its enumeration tree differs from the library's."""
    rng = random.Random(6)
    gens = []
    for _ in range(3):
        images = list(range(7))
        rng.shuffle(images)
        gens.append(Permutation(images))
    group = PermGroup(7, gens)
    assert group.order == 360
    return group


def _product_mult(group):
    elems, index = group.elements(), group.enumeration.index
    return lambda a, b: index[(elems[a] * elems[b]).images]


def _product_closure(group, seed_ids):
    """Breadth-first closure by permutation products, no columns."""
    mult = _product_mult(group)
    out, frontier = {0}, [0]
    for x in frontier:
        for g in seed_ids:
            y = mult(x, g)
            if y not in out:
                out.add(y)
                frontier.append(y)
    return frozenset(out)


@pytest.mark.parametrize("make", [lambda: library.group("A6"), lambda: library.group("S6"),
                                  lambda: library.group("AGL32"), _generated_group],
                         ids=["A6", "S6", "AGL32", "generated"])
def test_composed_columns_are_right_multiplication(make):
    """column(g), composed from generator columns along the enumeration
    tree, is x -> x*g as permutation products give it, for every g; the
    columns are asked for in a shuffled order, so walks start from cached
    ancestors at every depth."""
    group = make()
    group = PermGroup(group.degree, group.generators)  # a fresh column cache
    alg = group.enumeration
    elems, index = group.elements(), group.enumeration.index
    order = list(range(alg.n))
    random.Random(3).shuffle(order)
    for g in order:
        image = elems[g].images.__getitem__
        assert list(alg.column(g)) == [index[tuple(map(image, p.images))] for p in elems]


@pytest.mark.parametrize("key", ["S6", "AGL32"])
def test_coset_join_is_the_closure(key):
    """On seeded random pairs (H from the lattice, atom a), the join grown
    by coset images is the closure of H's generators and a, and it is None
    exactly when that closure has more than bail_above elements."""
    group = library.group(key)
    alg = group.enumeration
    subs = all_subgroups(group)
    atoms = [gen for _, gen in subgroups._atoms(group, range(alg.n))[0]]
    rng = random.Random(11)
    for _ in range(150):
        sub, a = rng.choice(subs), rng.choice(atoms)
        gens = alg.generating_ids(sub.elements) + [a]
        closed = _product_closure(group, gens)
        assert alg.closure(gens) == closed
        assert alg.join(sub.elements, gens) == closed
        bail = rng.randrange(sub.order, alg.n + 1)
        joined = alg.join(sub.elements, gens, bail_above=bail)
        assert joined == (None if len(closed) > bail else closed)


def _product_coset_decomposition(sub):
    """Right cosets by permutation products, representatives breadth first."""
    group = sub.parent
    mult = _product_mult(group)
    gen_ids = sorted({group.enumeration.index[g.images] for g in group.generators} - {0})
    rep_ids, coset_of = [0], {x: 0 for x in sub.elements}
    for r in rep_ids:
        for g in gen_ids:
            x = mult(r, g)
            if x not in coset_of:
                coset_of.update((mult(h, x), len(rep_ids)) for h in sub.elements)
                rep_ids.append(x)
    return rep_ids, coset_of


@pytest.mark.parametrize("key", ["S5", "PSL27", "S6", "AGL32", "M11"])
def test_coset_decomposition_matches_products(key):
    """Each maximal class representative, and for the lattice groups a
    seeded sample of other subgroups, has the representatives and the coset
    map that permutation products give."""
    group = library.group(key)
    subs = [cls.rep for cls in library.maximals(key)]
    if group.order <= 5000:
        subs += random.Random(5).sample(all_subgroups(group), 20)
    for sub in subs:
        assert subgroups._coset_decomposition(sub) == _product_coset_decomposition(sub)


def test_m11_bundled_maximals_are_a_fixed_point(data_dir):
    """Ingesting the bundled M11 list and writing it back gives the file.
    The build script's test pins that file to the computed list at a 10,000
    cap, so the ingested classes are the computed ones, rep for rep."""
    text = (data_dir / "m11.max").read_text()
    assert format_maximal_file(library.maximals("M11")) == text


@pytest.mark.parametrize("key", ["S4", "A5"])
def test_subgroup_generators_generate_it(key):
    group = library.group(key)
    alg = group.enumeration
    for sub in all_subgroups(group):
        assert alg.closure([alg.index[g.images] for g in sub.generators]) \
            == sub.elements


@pytest.mark.parametrize("key", [k for k in library.names()
                                 if library.group(k).order <= 360])
def test_walk_normalizer_is_brute_force_normalizer(key):
    """For each class representative H the walk joins, the normalizer read
    off its conjugation-orbit tree is {g : H^g = H}, found by conjugating
    permutations, and the words it returns evaluate to elements that
    generate it."""
    group = library.group(key)
    alg = group.enumeration
    elems = group.elements()
    gens = list(group.generators)
    letters = gens + [g.inverse() for g in gens]
    for orbit, _ in subgroups._lattice_classes(group):
        rep = orbit[0]
        images = {elems[x].images for x in rep}
        expected = {i for i, g in enumerate(elems)
                    if all(elems[x].conjugated_by(g).images in images for x in rep)}
        normalizer, words = subgroups._normalizer(alg, alg.conjugation_orbit(rep))
        assert normalizer == expected
        word_ids = []
        for word in words:
            p = Permutation.identity(group.degree)
            for letter in word:
                p = p * letters[letter]
            word_ids.append(alg.index[p.images])
        assert alg.closure(word_ids) == expected


def _word_ids(group, words):
    """The element ids of normalizer words: letter k is generator k, and
    k + m its inverse for m generators."""
    gens = list(group.generators)
    letters = gens + [g.inverse() for g in gens]
    ids = []
    for word in words:
        p = Permutation.identity(group.degree)
        for letter in word:
            p = p * letters[letter]
        ids.append(group.enumeration.index[p.images])
    return ids


@pytest.mark.parametrize("key", [k for k in library.names()
                                 if library.group(k).order <= 360])
def test_seeded_normalizer_is_the_unseeded_normalizer(monkeypatch, key):
    """For each class representative H the walk joins, _normalizer seeded
    with the generators H was admitted with gives the unseeded call's
    N_G(H), its words evaluate to elements that generate N_G(H), and for a
    self-normalizing H it makes no join at all."""
    group = library.group(key)
    alg = group.enumeration
    normalizer = subgroups._normalizer
    seeded = []

    def recording(alg, tree, gen_ids=()):
        seeded.append((tree, list(gen_ids)))
        return normalizer(alg, tree, gen_ids)

    monkeypatch.setattr(subgroups, "_normalizer", recording)
    walk = subgroups._lattice_classes(group)
    monkeypatch.undo()
    reps = [orbit[0] for orbit, _ in walk]
    # every class is joined, but G when no join reached it
    assert [next(iter(tree)) for tree, _ in seeded] == reps[:max(len(seeded), len(reps) - 1)]
    joins = []
    join = Enumeration.join

    def counting(self, *args, **kwargs):
        joins.append(None)
        return join(self, *args, **kwargs)

    for tree, gen_ids in seeded:
        rep = next(iter(tree))
        assert alg.closure(gen_ids) == rep
        expected = normalizer(alg, tree)[0]
        joins.clear()
        monkeypatch.setattr(Enumeration, "join", counting)
        norm, words = normalizer(alg, tree, gen_ids)
        monkeypatch.undo()
        assert norm == expected
        assert alg.closure(_word_ids(group, words)) == expected
        if expected == rep:
            assert joins == []


def reference_atoms(group, subject):
    """_atoms computed element by element: each element's order from
    Permutation.order, its powers by permutation products."""
    alg = group.enumeration
    seen, generates = {}, {}
    for x in subject:
        if x in generates:
            continue
        g = alg.elems[x]
        k = g.order
        try:
            p = subgroups.prime_power(k)[0]
        except OutOfRange:
            continue
        powers, q = [x], g
        for _ in range(k - 1):
            q = q * g
            powers.append(alg.index[q.images])
        ids = frozenset(powers)
        seen[ids] = x
        generates.update((y, ids) for e, y in enumerate(powers, start=1) if e % p)
    atoms = sorted(seen.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    position = {ids: a for a, (ids, _) in enumerate(atoms)}
    return atoms, [(x, position[ids]) for x, ids in generates.items()]


def check_atoms_against_reference(group, subject):
    atoms, atom_of = subgroups._atoms(group, subject)
    assert (atoms, list(atom_of.items())) == reference_atoms(group, subject)


@pytest.mark.parametrize("key", [k for k in library.names()
                                 if library.group(k).order <= LATTICE_MAX_ORDER
                                 and not library.group(k).is_cyclic()])
def test_atoms_match_the_per_element_reference(key):
    """The atoms, their order and the map atom_of, with element orders read
    from the class table, are those of a per-element order computation."""
    group = library.group(key)
    check_atoms_against_reference(group, range(group.order))


@pytest.mark.parametrize("key", ["S6", "PGL27"])
def test_atoms_within_a_normal_subgroup_match_the_reference(key):
    """Walked within a minimal normal subgroup N, the atoms are N's, on G's
    element ids and G's class table."""
    group = library.group(key)
    normal = minimal_normal_subgroups(group)[0]
    assert 1 < normal.order < group.order
    check_atoms_against_reference(group, sorted(normal.elements))


def test_atoms_of_a_quotient_build_its_class_table():
    """AGL32's coset-action quotient by its minimal normal subgroup has no
    class table until _atoms asks for one."""
    agl = library.group("AGL32")
    quotient = coset_action(minimal_normal_subgroups(agl)[0])[0]
    assert "_classes_and_assignment" not in quotient.__dict__
    check_atoms_against_reference(quotient, range(quotient.order))



@pytest.mark.parametrize("key", ["A6", "AGL32"])
def test_atoms_form_powers_without_permutation_products(monkeypatch, key):
    """_atoms composes each atom's powers as image tuples: no Permutation is
    multiplied once the group is enumerated and its class table built."""
    group = library.group(key)
    group.conjugacy_classes()

    def forbidden(*args):
        raise AssertionError("_atoms multiplied two Permutations")

    monkeypatch.setattr(Permutation, "__mul__", forbidden)
    assert subgroups._atoms(group, range(group.order))[0]

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
    alg = group.enumeration
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


def lattice_maximal_classes(group):
    """The maximal classes as the lattice walk flags them, packaged as
    maximal_classes_computed packages its own: the reference for that
    route."""
    orbits = [orbit for orbit, maximal in subgroups._lattice_classes(group) if maximal]
    return subgroups._package_max_classes(group, orbits, "computed")


def max_class_set_key(mx):
    """Everything a MaxClassSet holds and prints."""
    return (mx.provenance, format_maximal_file(mx),
            [(c.label, c.members, c.rep.elements, c.rep.generators) for c in mx])


PRODUCTS = {
    # N = A5 x 1, with the diagonals among the maximal complements of N
    "A5xA5": lambda: library.direct_product(library.alternating(5), library.alternating(5)),
    "S5xS3": lambda: library.direct_product(library.symmetric(5), library.symmetric(3)),
}


@pytest.mark.parametrize("key", [k for k in library.names()
                                 if library.group(k).order <= LATTICE_MAX_ORDER]
                         + sorted(PRODUCTS))
def test_maximal_classes_match_the_lattice_walk(key):
    """The route through a minimal normal subgroup gives the walk's classes,
    byte for byte, on every library group within the lattice cap and on two
    products with a nonabelian minimal normal subgroup."""
    group = library.group(key) if key in library.names() else PRODUCTS[key]()
    assert max_class_set_key(maximal_classes_computed(group)) == \
        max_class_set_key(lattice_maximal_classes(group))


@pytest.mark.parametrize("key", ["C2", "C3", "S5"])
def test_walk_and_route_on_groups_with_a_single_atom(key):
    """The walk and the maximal route where an id map has one entry: the
    one atom of C2 and of S5's descent quotient S5/A5 = C2, C3's one atom,
    and the trivial maximal subgroup that each route maps back."""
    group = {"C2": lambda: library.cyclic(2), "C3": lambda: library.cyclic(3),
             "S5": lambda: library.group("S5")}[key]()
    route = maximal_classes_computed(group)
    assert max_class_set_key(route) == max_class_set_key(lattice_maximal_classes(group))
    if key == "S5":
        assert [(c.index, c.class_length) for c in route] == [(2, 1), (5, 5), (6, 6), (10, 10)]
        quotient = coset_action(minimal_normal_subgroups(group)[0])[0]
        assert quotient.order == 2
        group = quotient
    atoms = subgroups._atoms(group, range(group.order))[0]
    assert [len(ids) for ids, _ in atoms] == [group.order]
    walk = subgroups._lattice_classes(group)
    assert walk == [([frozenset({0})], True), ([frozenset(range(group.order))], False)]
    if key != "S5":
        assert [(c.index, c.members, c.rep.generators) for c in route] == \
            [(group.order, (frozenset({0}),), (Permutation.identity(group.order),))]


@pytest.mark.parametrize("key, built", [("S5", 1), ("S6", 1), ("PGL27", 1),
                                        ("AGL32", 1), ("A6", 0)])
def test_maximal_route_builds_one_group_per_descent_step(monkeypatch, key, built):
    """The maximal route builds the quotient G/N at each step down and no
    other group: N's subgroups are walked on G's own element ids. S5, S6 and
    PGL27 have a nonabelian N with a quotient of order 2, AGL32 an abelian
    N, and A6 is simple."""
    made = []

    def counting(*args, **kwargs):
        made.append(None)
        return PermGroup(*args, **kwargs)

    group = library.group(key)
    monkeypatch.setattr(subgroups, "PermGroup", counting)
    maximal_classes_computed(group)
    assert len(made) == built


@pytest.mark.parametrize("key", ["S5", "S6", "PGL27"])
def test_maximal_route_closes_each_subgroup_under_conjugation_once(monkeypatch, key):
    """Below a nonabelian N, the normalizers N_G(K) of N's subgroups K grow
    along the orbit trees of the walk within N, from K's generators: no
    subgroup's conjugation orbit is computed twice by the maximal route."""
    roots = []
    conjugation_orbit = Enumeration.conjugation_orbit

    def recording(self, ids):
        roots.append((id(self), ids))
        return conjugation_orbit(self, ids)

    monkeypatch.setattr(Enumeration, "conjugation_orbit", recording)
    maximal_classes_computed(library.group(key))
    assert roots and len(set(roots)) == len(roots)


@pytest.mark.parametrize("key", ["S6", "PGL27", "AGL32", "A5xC2"])
def test_complement_budget_falls_back_to_the_walk(monkeypatch, key):
    """When N's complements are over budget, the maximal route stops its
    descent and walks the lattice of the quotient reached, with the same
    classes, labels, members and provenance as the full descent."""
    group = library.group(key)
    unpatched = max_class_set_key(maximal_classes_computed(group))
    calls = []

    def over_budget(low, high):
        calls.append(high.order)
        raise BudgetExceeded("complement budget")

    monkeypatch.setattr(subgroups, "complements", over_budget)
    assert max_class_set_key(maximal_classes_computed(group)) == unpatched
    assert calls == [minimal_normal_subgroups(group)[0].order]


def test_complements():
    s4 = library.group("S4")
    (v4,) = minimal_normal_subgroups(s4)
    point_stabilizers = {frozenset(i for i, p in enumerate(s4.elements()) if p.images[k] == k)
                         for k in range(4)}
    assert set(complements(Subgroup(s4, frozenset({0})), v4)) == point_stabilizers
    agl32 = library.group("AGL32")
    translations = minimal_normal_subgroups(agl32)[0]
    found = complements(Subgroup(agl32, frozenset({0})), translations)
    assert len(found) == len(set(found)) == 16
    assert all(len(c) == 168 and c & translations.elements == {0} for c in found)
    d8 = library.group("D8")
    trivial, centre, whole = [s for s in normal_subgroups(d8) if s.order in (1, 2, 8)]
    assert complements(centre, whole) == [centre.elements]
    assert complements(trivial, centre) == []


def test_complement_search_has_a_budget():
    """C2^3 has 2^9 complements in C2^6, more joins than |G| times the
    factor's order, 512."""
    group = library.elementary_abelian(2, 6)
    low = Subgroup(group, frozenset({0}))
    high = subgroup_from_gens(group, group.generators[:3])
    with pytest.raises(BudgetExceeded,
                       match="complement budget: more than 512 joins for a factor of order 8"):
        complements(low, high)


def test_m11_ingestion():
    mx = library.maximals("M11")
    assert mx.provenance == "ingested"
    assert [c.index for c in mx] == [11, 12, 55, 66, 165]
    assert [c.class_length for c in mx] == [11, 12, 55, 66, 165]
    assert sum(c.class_length for c in mx) == 309


def test_library_maximals_are_cached_on_key_and_cap():
    """Each spelling of the same call reads one cached list: M11's file is
    ingested once, not once per spelling."""
    before = library._maximals.cache_info()
    first = library.maximals("M11")
    assert library.maximals("M11", LATTICE_MAX_ORDER) is first
    assert library.maximals("M11", lattice_max_order=LATTICE_MAX_ORDER) is first
    after = library._maximals.cache_info()
    assert after.misses - before.misses <= 1
    assert after.hits + after.misses - before.hits - before.misses == 3


def test_ingest_rejects_outside_generator():
    group = library.group("A5")
    text = "[class 1]\nindex 5\nlength 5\n(1,2)\n"  # odd permutation, not in A5
    with pytest.raises(IngestInvalid):
        maximal_classes_from_file(group, text)


def test_ingest_rejects_non_maximal():
    group = library.group("A5")
    text = "[class 1]\nindex 30\nlength 15\n(1,2)(3,4)\n"  # C2 is far from maximal
    with pytest.raises(IngestInvalid, match="not the computed ones"):
        maximal_classes_from_file(group, text)
    with pytest.raises(IngestInvalid, match="^not maximal: adjoining "):
        maximal_classes_from_file(group, text, lattice_max_order=0)


def test_ingest_within_the_cap_must_list_the_computed_classes():
    """A5's list without its index-5 class gave sigma 16 where sigma(A5) is
    10. Within the lattice cap the list must be the computed one; above it
    each class is checked alone, so the two classes are accepted."""
    group = library.group("A5")
    blocks = format_maximal_file(maximal_classes_computed(group)).split("[class ")
    text = "".join("[class " + b for b in blocks[1:] if "\nindex 5\n" not in b)
    with pytest.raises(IngestInvalid, match=r"^the ingested maximal classes \(2\) are not "
                                            r"the computed ones \(3\)$"):
        maximal_classes_from_file(group, text)
    assert len(maximal_classes_from_file(group, text, lattice_max_order=0)) == 2


@pytest.mark.parametrize("key", ["A5", "S6", "AGL32"])
def test_ingest_within_the_cap_runs_no_per_class_check(key, monkeypatch):
    """Equal lists prove every class maximal, so within the cap the
    comparison replaces _verify_maximal rather than adding to it."""
    group = library.group(key)
    text = format_maximal_file(maximal_classes_computed(group))

    def forbidden(*args):
        raise AssertionError("the per-class check ran within the lattice cap")

    monkeypatch.setattr(subgroups, "_verify_maximal", forbidden)
    mx = maximal_classes_from_file(group, text)
    assert mx.provenance == "ingested"
    assert [c.members for c in mx] == [c.members for c in maximal_classes_computed(group)]
    with pytest.raises(AssertionError, match="per-class check"):
        maximal_classes_from_file(group, text, lattice_max_order=group.order - 1)


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


def check_ingest_against_lattice(group, subs, maximal):
    """Ingest one representative of each conjugacy class of proper subgroups
    among ``subs`` (the whole lattice) as a one-class file under a lattice
    cap of 0, so that the per-class check decides: it accepts the class of
    its conjugates exactly when it is in ``maximal``, and rejects it as not
    maximal otherwise."""
    alg = group.enumeration
    seen = set()
    for sub in subs[:-1]:
        if sub.elements in seen:
            continue
        orbit = sorted(alg.conjugation_orbit(sub.elements), key=sorted)
        seen.update(orbit)
        gens = "\n".join(format_cycles(g) for g in sub.generators)
        text = f"[class 1]\nindex {sub.index}\nlength {len(orbit)}\n{gens}\n"
        if sub.elements not in maximal:
            with pytest.raises(IngestInvalid, match="not maximal"):
                maximal_classes_from_file(group, text, lattice_max_order=0)
        else:
            (cls,) = maximal_classes_from_file(group, text, lattice_max_order=0).classes
            assert cls.members == tuple(orbit)


@pytest.mark.parametrize("key", SMALL_GROUPS)
def test_ingest_maximality_check_matches_lattice(key):
    """The ingest check accepts a proper subgroup class representative
    exactly when no subgroup of the lattice lies strictly between it and
    the group, and those are exactly the members of the computed maximal
    classes."""
    group = library.group(key)
    subs = all_subgroups(group)
    full = subs[-1].elements
    maximal = {sub.elements for sub in subs[:-1]
               if not any(sub.elements < s.elements < full for s in subs)}
    assert {m for cls in library.maximals(key) for m in cls.members} == maximal
    check_ingest_against_lattice(group, subs, maximal)


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
    of its actions on 11, 12, 55, 66 and 165 points), so the ingest makes
    one bailing join per nontrivial double coset: 1 + 1 + 2 + 3 + 7, against
    one per coset (304) if each coset were probed. It builds no group and
    multiplies no permutations, and the joins extend the generators read
    from the file, so no generating set is rebuilt."""
    group = library.group("M11")
    text = resources.files("covnum.data").joinpath("m11.max").read_text()
    made = []
    rebuilt = []
    join = Enumeration.join

    def counting(self, ids, gen_ids, bail_above=None):
        if bail_above is not None:
            made.append(None)
        return join(self, ids, gen_ids, bail_above)

    def forbidden(*args, **kwargs):
        raise AssertionError("the maximality check built a group or multiplied")

    monkeypatch.setattr(subgroups, "PermGroup", forbidden)
    monkeypatch.setattr(Permutation, "__mul__", forbidden)
    monkeypatch.setattr(Enumeration, "join", counting)
    monkeypatch.setattr(Enumeration, "generating_ids",
                        lambda self, ids: rebuilt.append(None))
    maximal_classes_from_file(group, text)
    assert len(made) == 14
    assert rebuilt == []


def _subgroup(group, *gen_texts):
    gens = [parse_permutation(t, group.degree) for t in gen_texts]
    return subgroup_from_gens(group, gens)


def test_normal_core_examples():
    s4 = library.group("S4")
    stab = _subgroup(s4, "(1,2,3)", "(1,2)")  # S3 fixing point 4
    assert stab.order == 6
    assert normal_core(stab).order == 1
    d8 = _subgroup(s4, "(1,2,3,4)", "(1,3)")
    assert d8.order == 8
    core = normal_core(d8)
    assert core.order == 4
    v4 = _subgroup(s4, "(1,2)(3,4)", "(1,3)(2,4)")
    assert normal_core(v4).elements == v4.elements  # normal subgroup is its own core


def test_coset_action_examples():
    s4 = library.group("S4")
    d8 = _subgroup(s4, "(1,2,3,4)", "(1,3)")
    image, kernel = coset_action(d8)
    assert image.degree == 3 and image.order == 6
    assert kernel.order == 4
    full = _subgroup(s4, "(1,2,3,4)", "(1,2)")
    image, kernel = coset_action(full)
    assert image.degree == 1 and kernel.order == 24
    a5 = library.group("A5")
    a4 = _subgroup(a5, "(1,2,3)", "(1,2)(3,4)")
    image, kernel = coset_action(a4)
    assert image.degree == 5 and image.order == 60 and kernel.order == 1


def test_coset_action_refuses_a_degree_over_the_cap(monkeypatch):
    """coset_action builds actions of degree up to COSET_DEGREE_MAX and
    raises IndexTooLarge above it, before any coset is listed."""
    c3 = _subgroup(library.group("S4"), "(1,2,3)")  # index 8
    monkeypatch.setattr(subgroups, "COSET_DEGREE_MAX", 8)
    image, kernel = coset_action(c3)
    assert image.degree == 8 and image.order == 24 and kernel.order == 1
    monkeypatch.setattr(subgroups, "COSET_DEGREE_MAX", 7)
    with pytest.raises(IndexTooLarge, match="index 8 exceeds 7"):
        coset_action(c3)


def test_kernel_equals_normal_core_for_maximals():
    # reference: x lies in the kernel when r*x*r^-1 lies in H for every r in
    # G, so that x fixes every right coset H*r
    for key in ["S4", "A5", "D12", "PSL27"]:
        group = library.group(key)
        alg = group.enumeration
        mult = _product_mult(group)
        inv = [alg.index[p.inverse().images] for p in alg.elems]
        for cls in maximal_classes_computed(group):
            image, kernel = coset_action(cls.rep)
            brute = {x for x in range(alg.n)
                     if all(mult(mult(r, x), inv[r]) in cls.rep.elements
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
            image, kernel = coset_action(cls.rep)
            if kernel.order == 1:
                assert _min_block_size(image) == image.degree


def test_minimal_normal_subgroups():
    assert [s.order for s in minimal_normal_subgroups(library.group("S4"))] == [4]
    assert [s.order for s in minimal_normal_subgroups(library.group("A5"))] == [60]
    assert [s.order for s in minimal_normal_subgroups(library.group("V4"))] == [2, 2, 2]
    assert [s.order for s in minimal_normal_subgroups(library.group("A5xC2"))] == [2, 60]
    assert [s.order for s in normal_subgroups(library.group("M11"))] == [1, 7920]


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
    assert min_supplement_index(full, maximal_classes_computed(a5)) == 5
    s5 = library.group("S5")
    a5_in_s5 = _subgroup(s5, "(1,2,3)", "(1,2,3,4,5)")
    assert a5_in_s5.order == 60
    assert min_supplement_index(a5_in_s5, maximal_classes_computed(s5)) == 5
    c4 = PermGroup(4, [parse_permutation("(1,2,3,4)", 4)], name="C4")
    c2 = _subgroup(c4, "(1,3)(2,4)")
    with pytest.raises(NoSupplement):
        min_supplement_index(c2, maximal_classes_computed(c4))


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
                                 if library.group(k).order <= 720] + ["AGL32"])
def test_normal_closure_is_least_normal_overgroup(key):
    """normal_subgroups lists the normal subgroups of the lattice in its
    order, and the normal closure of each class representative equals the
    intersection of those that contain it; normality is checked here by
    conjugating permutations."""
    group = library.group(key)
    elems = group.elements()
    normals = []
    for sub in all_subgroups(group):
        images = frozenset(elems[i].images for i in sub.elements)
        if _is_normal_by_conjugation(group, images):
            normals.append(images)
    assert [frozenset(elems[i].images for i in sub.elements)
            for sub in normal_subgroups(group)] == normals
    alg = group.enumeration
    for cls in group.conjugacy_classes():
        expected = frozenset.intersection(
            *(n for n in normals if cls.rep.images in n))
        closure = alg.normal_closure([alg.index[cls.rep.images]])
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


@pytest.mark.parametrize("key", [k for k in library.names() if library.group(k).order <= 720])
def test_is_solvable_matches_derived_series(key):
    """is_solvable reads solvability off the chief series; here the derived
    series is built by brute force, each term generated by every commutator
    a^-1 b^-1 a b of the term before, until it stops shrinking."""
    group = library.group(key)
    term = [p.images for p in group.elements()]
    while True:
        times = {p: itemgetter(*p) for p in term}  # times[p](q) is p * q
        inverse = {p: Permutation(p).inverse().images for p in term}
        commutators = {times[times[times[inverse[a]](inverse[b])](a)](b)
                       for a in term for b in term}
        gens, derived = [], _generated([], group.degree)  # grown by each commutator outside it
        for c in sorted(commutators):
            if c not in derived:
                gens.append(Permutation(c))
                derived = _generated(gens, group.degree)
        if len(derived) == len(term):
            break
        term = list(derived)
    assert is_solvable(group) == (len(term) == 1)

import hashlib
import random
import re
import time
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st
from oracle import exhaustive_sigma

from covnum import library
from covnum.cover import CoverInstance, CoverResult, SolveBudget, _bits, _greedy_cover, \
    _minimal_positions, _Orbits, _reduce_universe, build_instance, format_instance, format_lp, \
    parse_instance, sigma_exact, solve
from covnum.errors import CovnumError, CyclicGroup, Infeasible, ParseError
from covnum.greedy import covering_number_bounds
from covnum.perms import format_cycles
from covnum.subgroups import LATTICE_MAX_ORDER, all_subgroups, coset_action, \
    maximal_classes_computed, minimal_normal_subgroups, normal_subgroups


def _instance(key, elts=None, subs=None):
    group = library.group(key)
    return build_instance(group, group.conjugacy_classes(), library.maximals(key),
                          elts=elts, subs=subs)


def test_a5_full_instance_shape():
    inst = _instance("A5")
    assert inst.universe_size == 59
    assert len(inst.column_masks) == 21  # 5 + 6 + 10
    # G acts on the columns; A4, D10 and S3 are their own normalizers
    assert [len(n) for n in inst.action.normalizers] == [12] * 5 + [10] * 6 + [6] * 10
    assert inst.action.element_classes == frozenset(range(4))
    assert inst.action.elements == tuple(range(1, 60))


def _bitwise_instance(group, mx, elts=None, subs=None):
    """Reference build: the universe, then per kept column its mask, class
    and normalizer, each mask set one bit at a time through a position dict;
    empty masks and masks met before are dropped, as build_instance drops
    them."""
    cls = group.conjugacy_classes()
    elts = [c.label for c in cls] if elts is None else elts
    subs = [m.label for m in mx.classes] if subs is None else subs
    selected = {cls.by_label(lbl) for lbl in elts}
    assignment = group.class_assignment()
    universe = tuple(x for x in range(1, group.order) if assignment[x] in selected)
    position = {x: p for p, x in enumerate(universe)}
    columns = []
    for k, lbl in enumerate(subs):
        mcls = mx.classes[mx.by_label(lbl)]
        for member in mcls.members:
            mask = 0
            for x in member:
                if x in position:
                    mask |= 1 << position[x]
            if mask and mask not in [m for m, _, _ in columns]:
                columns.append((mask, k, member if mcls.self_normalizing else None))
    return universe, columns


def _check_against_bitwise(group, mx, elts=None, subs=None):
    inst = build_instance(group, group.conjugacy_classes(), mx, elts=elts, subs=subs)
    universe, columns = _bitwise_instance(group, mx, elts, subs)
    assert inst.universe_size == len(universe)
    assert inst.action.elements == universe
    assert list(zip(inst.column_masks, inst.column_class, inst.action.normalizers)) == columns
    return inst


def test_instance_masks_match_the_bitwise_reference():
    """build_instance sets a member's bits in a byte buffer and reads it as
    one int; a bit-by-bit build gives the same masks in the same column
    order, on every noncyclic library group (M11 from its bundled list) and
    the solvable suite."""
    groups = [(library.group(key), library.maximals(key)) for key in library.names()
              if not library.group(key).is_cyclic()]
    groups += [(group, maximal_classes_computed(group)) for group in library.solvable_suite()]
    for group, mx in groups:
        _check_against_bitwise(group, mx)


@pytest.mark.parametrize("key,elts,subs,columns,instance_sha256,lp_sha256", [
    # 117 elements, ids with gaps, and not a whole number of bytes
    ("A6", ["cl_2", "cl_5,2"], None, 52,
     "bdc65033b5016b21b08568a5be5144ea4150c776db5d107c13c1f73fb97a88d1",
     "d09e65c22e5bde23e9e7d867d4ce39252e1173181b5c7b956f17285e516af7cd"),
    ("A5", None, ["M1", "M2"], 11,
     "9e8e5e538efd6c3145b74464d2a2484f96ad5f91057aef5383916d6c339d206b",
     "83c7e9df4f86bd44b78afbedc0ae6d55cd827c8ede00c29e78ff28e267fe8369"),
    ("M11", None, None, 309,
     "21c4dfcdc806f26b9471d1ceee6b6d8dd1abf5c3e5a9d799bd49c960672ceb5e",
     "9a86132826ca9951c238d39503cb99ce19c1201fc873be25856bc01b30d1f8de"),
])
def test_selected_instance_masks_and_text_are_pinned(key, elts, subs, columns,
                                                      instance_sha256, lp_sha256):
    inst = _check_against_bitwise(library.group(key), library.maximals(key), elts, subs)
    assert len(inst.column_masks) == columns
    assert hashlib.sha256(format_instance(inst).encode()).hexdigest() == instance_sha256
    assert hashlib.sha256(format_lp(inst, key).encode()).hexdigest() == lp_sha256


def test_empty_universe_has_no_columns():
    inst = _check_against_bitwise(library.group("A5"), library.maximals("A5"), elts=[])
    assert (inst.universe_size, inst.column_masks) == (0, ())


def test_cyclic_instance_infeasible():
    """The witness is the lowest uncovered element, as in solve: here the
    first element of the universe, named in cycle notation."""
    group = library.group("C5")
    with pytest.raises(Infeasible) as err:
        build_instance(group, group.conjugacy_classes(), library.maximals("C5"))
    first = group.elements()[1]
    assert err.value.witness == first
    assert str(err.value).startswith(f"element {format_cycles(first)} of class ")


@pytest.mark.parametrize("text, missing", [
    ("universe 2\ncolumns 1\n0\n", 1),
    ("universe 2\ncolumns 0\n", 0),
])
def test_solve_rejects_an_uncovered_element(text, missing):
    """An element in no column makes the instance infeasible; solve says so
    before searching instead of failing its own incumbent check."""
    with pytest.raises(Infeasible, match=f"element {missing} lies in no column") as err:
        solve(parse_instance(text))
    assert err.value.witness == missing


def test_psl27_order7_instance():
    inst = _instance("PSL27", elts=["cl_7,1", "cl_7,2"], subs=["M3"])
    assert inst.universe_size == 48
    assert len(inst.column_masks) == 8
    assert all(m.bit_count() == 6 for m in inst.column_masks)


def test_solve_a5_witness_composition():
    inst = _instance("A5")
    result = solve(inst)
    assert result.optimal and result.upper == 10
    classes = [inst.column_class[c] for c in result.chosen]
    d10 = inst.class_labels.index("M2")
    assert classes.count(d10) == 6  # all six D10s are forced


@pytest.mark.parametrize("key,expected", [("V4", 3), ("S3", 4), ("S5", 16)])
def test_sigma_exact_small(key, expected):
    result = sigma_exact(library.group(key), mx=library.maximals(key))
    assert result.optimal and result.upper == expected


def test_sigma_exact_rejects_cyclic():
    with pytest.raises(CyclicGroup):
        sigma_exact(library.group("C6"))


def test_witness_always_covers():
    for key in ["V4", "S3", "D8", "A5", "AGL15"]:
        inst = _instance(key)
        result = solve(inst)
        cov = 0
        for c in result.chosen:
            cov |= inst.column_masks[c]
        assert cov == inst.full_mask()
        assert len(result.chosen) == result.upper


def test_budget_monotonicity():
    inst = _instance("A6")
    expect = 16
    prev_lower, prev_upper = 0, inst.universe_size
    for nodes in (1, 8, 64, 512, 100000):
        result = solve(inst, SolveBudget(max_nodes=nodes))
        assert result.lower <= expect <= result.upper
        assert result.lower >= prev_lower and result.upper <= prev_upper
        prev_lower, prev_upper = result.lower, result.upper
    assert result.optimal and result.upper == expect


def test_exhausted_budget_is_flagged_not_wrong():
    inst = _instance("A6")
    result = solve(inst, SolveBudget(max_nodes=2))
    assert result.budget_exhausted and not result.optimal
    assert result.lower <= 16 <= result.upper


def test_deep_search_returns_a_bracket():
    # 600 disjoint triangles {a, b, c} with columns {a,b}, {b,c}, {a,c}:
    # sigma is 1200 and every decision goes one level deeper, so a search
    # deeper than Python's recursion limit must still end in a sound bracket
    lines = ["universe 1800", "columns 1800"]
    for a in range(0, 1800, 3):
        lines += [f"{a} {a + 1}", f"{a + 1} {a + 2}", f"{a} {a + 2}"]
    result = solve(parse_instance("\n".join(lines)), SolveBudget(max_nodes=1200))
    assert result.budget_exhausted and not result.optimal
    assert result.lower <= 1200 <= result.upper
    assert result.nodes_explored == 1200


def test_zero_time_limit_stops_at_the_first_node():
    # the clock starts when solve is entered and is read right after the
    # greedy incumbent, so a limit of 0 on the 600-triangle instance
    # (sigma 1200) ends the solve before the universe reduction, with the
    # ceiling bound 1800 / 2 as a sound lower end
    lines = ["universe 1800", "columns 1800"]
    for a in range(0, 1800, 3):
        lines += [f"{a} {a + 1}", f"{a + 1} {a + 2}", f"{a} {a + 2}"]
    inst = parse_instance("\n".join(lines))
    start = time.perf_counter()
    result = solve(inst, SolveBudget(time_limit=0))
    assert time.perf_counter() - start < 0.1
    assert result.nodes_explored == 0
    assert result.budget_exhausted and not result.optimal
    assert result.lower == 900 and result.upper == 1200 == len(result.chosen)


def _class_greedy_seed(group, mx, inst):
    """The columns of the greedy cover's classes, in column order."""
    chosen = covering_number_bounds(group, mx).chosen_subgroup_classes()
    wanted = {mx.by_label(lbl) for lbl in chosen}
    return [c for c, k in enumerate(inst.column_class) if k in wanted]


def test_greedy_incumbent_feeds_solver():
    # sigma_exact takes no seed, and the smallest union of whole classes
    # starts its search where the columns of the greedy cover's classes,
    # seeded by hand, start it
    for key, budget in [("S6", SolveBudget()), ("A6", SolveBudget(max_nodes=2000))]:
        group = library.group(key)
        mx = library.maximals(key)
        inst = _instance(key)
        result = sigma_exact(group, budget, mx=mx)
        assert result == solve(inst, budget) == \
            solve(inst, budget, initial_cover=_class_greedy_seed(group, mx, inst))
        assert result.upper <= covering_number_bounds(group, mx).upper


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(0, 2000).flatmap(
    lambda n: st.sets(st.integers(0, n), max_size=n // 3 + 1).map(lambda ps: (n, ps))))
def test_bits_lists_the_set_positions_lowest_first(drawn):
    """Dense masks and sparse ones, which _bits reads by different means,
    and the iterator that next() takes the lowest position from."""
    n, positions = drawn
    mask = sum(1 << p for p in positions)
    assert list(_bits(mask)) == sorted(positions)
    assert next(_bits(mask), None) == min(positions, default=None)


def _eager_greedy_cover(masks, full):
    """Reference greedy: every gain recomputed at every step."""
    chosen, cov = [], 0
    while cov != full:
        gains = [(m & ~cov).bit_count() for m in masks]
        best = max(range(len(masks)), key=lambda c: (gains[c], -c), default=None)
        if best is None or gains[best] == 0:
            break
        chosen.append(best)
        cov |= masks[best]
    return chosen


def test_lazy_greedy_cover_picks_as_the_eager_one():
    # random masks over up to 40 elements, with many gain ties; when the
    # union is not full the greedy stops once nothing more is gained
    rng = random.Random(13)
    partial = 0
    for _ in range(1500):
        size = rng.randint(1, 40)
        density = rng.choice([0.05, 0.2, 0.5])
        masks = [sum(1 << e for e in range(size) if rng.random() < density)
                 for _ in range(rng.randint(0, 25))]
        full = (1 << size) - 1
        union = 0
        for m in masks:
            union |= m
        partial += union != full
        assert _greedy_cover(masks, full) == _eager_greedy_cover(masks, full)
    assert partial > 100


def test_instance_text_round_trip():
    inst = _instance("A5")
    text = format_instance(inst)
    again = parse_instance(text)
    assert again.universe_size == inst.universe_size
    assert again.column_masks == inst.column_masks
    assert again.action is None  # imported instances have no group acting on them
    assert solve(again).upper == 10


def test_instance_text_rejects_an_empty_column():
    # an empty column would be a blank line, which parse_instance skips
    inst = CoverInstance(2, (3, 0), (0, 1), ("C1", "C2"))
    with pytest.raises(CovnumError, match=r"column 1 \(C2\) covers nothing"):
        format_instance(inst)


@pytest.mark.parametrize("text,line,message", [
    ("universe x\ncolumns 1\n0\n", 1, "bad universe 'x'"),
    ("universe 3\ncolumns 1.5\n0\n", 2, "bad columns '1.5'"),
    ("universe -2\ncolumns 0\n", 1, "bad universe '-2'"),
    ("universe 3\ncolumns 2\n0 1\n\n1 a\n", 5, "bad element 'a'"),
    ("universe 3\ncolumns 1\n0 -1\n", 3, "bad element '-1'"),
    ("universe 3\ncolumns 2\n0\n1 3\n", 4, "element 3 out of range"),
])
def test_instance_text_errors_name_their_line(text, line, message):
    with pytest.raises(ParseError, match=f"^line {line}: {message}$"):
        parse_instance(text)


@pytest.mark.parametrize("text, message", [
    ("", "expected 'universe N' and 'columns M' headers"),
    ("universe 3\n", "expected 'universe N' and 'columns M' headers"),
    ("columns 1\nuniverse 3\n0\n", "expected 'universe N' and 'columns M' headers"),
    ("universe 3 4\ncolumns 1\n0\n", "expected 'universe N' and 'columns M' headers"),
    ("universe 3\ncolumns\n0\n", "expected 'universe N' and 'columns M' headers"),
    ("universe 3\ncolumns 2\n0 1 2\n", "expected 2 column lines, found 1"),
    ("universe 3\ncolumns 1\n0\n\n1 2\n", "expected 1 column lines, found 2"),
])
def test_instance_text_header_and_column_count_errors(text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_instance(text)


def test_lp_emitter_shape():
    inst = _instance("V4")
    text = format_lp(inst, "V4")
    lines = text.splitlines()
    assert lines[1] == "Minimize"
    assert sum(1 for ln in lines if ln.startswith(" e")) == inst.universe_size
    assert "Binary" in text and lines[-1] == "End"


@pytest.mark.parametrize("key,lp_sha256", [
    ("A5", "5f0ba16be5c6295c98087f1d002e3c172d95273997a015532fbce27e58b9bbc6"),
    ("PSL27", "b6ef31fa5f512e6a3c22900a467d7c7930249fbcba2ad55999d44c9c0cdd540f"),
])
def test_lp_rows_list_covering_columns(key, lp_sha256):
    inst = _instance(key)
    text = format_lp(inst, key)
    rows = [ln for ln in text.splitlines() if ln.startswith(" e")]
    for e, row in enumerate(rows):
        covering = [f"x{c}" for c, m in enumerate(inst.column_masks) if m >> e & 1]
        assert row == f" e{e}: " + " + ".join(covering) + " >= 1"
    assert hashlib.sha256(text.encode()).hexdigest() == lp_sha256


@st.composite
def parsed_instances(draw):
    """Instance text with duplicate and nested element column sets: each
    element takes one of a few sparse base column sets, often with more
    columns added. Sparse sets make the greedy cover miss sigma often."""
    ncols = draw(st.integers(4, 10))
    column_set = st.sets(st.integers(0, ncols - 1), min_size=1, max_size=3).map(
        lambda cs: sum(1 << c for c in cs))
    bases = draw(st.lists(column_set, min_size=3, max_size=12))
    sigs = draw(st.lists(st.tuples(st.sampled_from(bases), st.one_of(st.just(0), column_set)),
                         min_size=4, max_size=20))
    sigs = [base | extra for base, extra in sigs]
    columns = [[e for e, s in enumerate(sigs) if s >> c & 1] for c in range(ncols)]
    columns = [col for col in columns if col]  # instance text has no empty columns
    lines = [f"universe {len(sigs)}", f"columns {len(columns)}"]
    lines += [" ".join(map(str, col)) for col in columns]
    return parse_instance("\n".join(lines) + "\n"), columns


@st.composite
def branching_instances(draw):
    """Columns of equal size drawn at random from a seed, redrawn until they
    cover: 24 elements with 24 columns of 4, or 18 with 30 triples. Unlike
    ``parsed_instances`` these seldom close at the root. Of the 200
    derandomized examples, the 104 of the first shape take 1 to 85 nodes
    (quartiles 14, 21.5 and 35.75; two close at the root), the 96 of the
    second 3 to 129 (quartiles 32, 42.5 and 58.25)."""
    universe, ncols, size = draw(st.sampled_from([(24, 24, 4), (18, 30, 3)]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    columns = []
    while len(set().union(*columns)) < universe:
        columns = [sorted(rng.sample(range(universe), size)) for _ in range(ncols)]
    lines = [f"universe {universe}", f"columns {ncols}"] + [" ".join(map(str, c)) for c in columns]
    return parse_instance("\n".join(lines) + "\n"), columns


@settings(max_examples=200, derandomize=True, deadline=None)
@given(parsed_instances(), st.integers(1, 3))
def test_random_instances_agree_with_oracle(drawn, cut_nodes):
    inst, columns = drawn
    assert inst.action is None
    sigma = exhaustive_sigma(set(range(inst.universe_size)), columns, len(columns))
    result = solve(inst)
    assert result.optimal and result.upper == sigma
    cut = solve(inst, SolveBudget(max_nodes=cut_nodes))
    assert cut.lower <= sigma <= cut.upper
    assert not cut.optimal or cut.upper == sigma


def test_elements_in_more_columns_than_the_reduced_universe_has_elements():
    # greedy takes {0,1,2,3} first and needs three columns; {0,1,4} and
    # {2,3,5} cover in two. Repeated columns put each of the two kept
    # elements, 4 and 5, in four columns.
    text = "universe 6\ncolumns 9\n0 1 2 3\n" + "0 1 4\n2 3 5\n" * 4
    result = solve(parse_instance(text))
    assert result.optimal and result.upper == 2


def _quadratic_reduce_universe(masks, universe_size):
    """Reference: each distinct column set tested against every kept one."""
    sig = [sum(1 << c for c, m in enumerate(masks) if m >> p & 1) for p in range(universe_size)]
    first = {}
    for p, s in enumerate(sig):
        first.setdefault(s, p)
    kept = []
    for s in sorted(first, key=int.bit_count):
        if not any(k & s == k for k in kept):
            kept.append(s)
    return [sum(1 << r for r, s in enumerate(kept) if s >> c & 1) for c in range(len(masks))], kept


@settings(max_examples=200, derandomize=True, deadline=None)
@given(parsed_instances())
def test_reduced_universe_matches_the_quadratic_filter(drawn):
    inst, _ = drawn
    assert _reduce_universe(inst.column_masks, inst.full_mask()) == \
        _quadratic_reduce_universe(inst.column_masks, inst.universe_size)


def _reference_solve(inst, max_nodes):
    """Reference search for an instance without an action: the uncovered
    elements are listed again after each forced column, and both bounds
    are computed in full at every node."""
    masks, full = inst.column_masks, inst.full_mask()
    best = _eager_greedy_cover(masks, full)
    cols, sig = _quadratic_reduce_universe(masks, inst.universe_size)
    size = len(sig)
    rarity = sorted(range(size), key=lambda e: (sig[e].bit_count(), e))

    def bound(cov, live):  # the larger of the packing and the ceiling bound
        blocked = packing = 0
        for e in rarity:
            if not cov >> e & 1 and not sig[e] & blocked:
                blocked |= sig[e]
                packing += 1
        left = size - cov.bit_count()
        biggest = max([(cols[c] & ~cov).bit_count() for c in range(len(cols)) if live >> c & 1],
                      default=0)
        ceiling = 0 if left == 0 else -(-left // biggest) if biggest else size + 1
        return max(packing, ceiling)

    root = max(bound(0, (1 << len(cols)) - 1), 1)
    stack, nodes, exhausted = [(0, 0, ())], 0, False
    while stack:
        cov, banned, chosen = stack.pop()
        if len(chosen) >= len(best):
            continue
        nodes += 1
        if nodes >= max_nodes:
            exhausted = True
            break
        while True:
            uncovered = [e for e in range(size) if not cov >> e & 1]
            if not uncovered:
                break
            live = 0
            for e in uncovered:
                live |= sig[e]
            live &= ~banned
            avail = [sig[e] & live for e in uncovered]
            fewest = min(a.bit_count() for a in avail)
            branch = next(a for a in avail if a.bit_count() == fewest)
            if fewest != 1 or len(chosen) + 1 >= len(best):
                break
            chosen += (branch.bit_length() - 1,)
            cov |= cols[chosen[-1]]
        if not uncovered:
            if len(chosen) < len(best):
                best = list(chosen)
            continue
        if fewest <= 1 or bound(cov, live) >= len(best) - len(chosen):
            continue
        children = []
        for c in sorted((c for c in range(len(cols)) if branch >> c & 1),
                        key=lambda c: (-(cols[c] & ~cov).bit_count(), c)):
            children.append((cov | cols[c], banned, chosen + (c,)))
            banned |= 1 << c
        stack.extend(reversed(children))
    return CoverResult(lower=min(root, len(best)) if exhausted else len(best), upper=len(best),
                       chosen=tuple(best), nodes_explored=nodes, budget_exhausted=exhausted)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(parsed_instances(), st.integers(1, 3))
def test_search_matches_the_reference_search(drawn, cut_nodes):
    """The same tree as the reference: the same cover, bracket and node
    count, run to the end and cut after one to three nodes."""
    inst, _ = drawn
    assert solve(inst) == _reference_solve(inst, SolveBudget().max_nodes)
    assert solve(inst, SolveBudget(max_nodes=cut_nodes)) == _reference_solve(inst, cut_nodes)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(branching_instances(), st.integers(1, 40))
def test_branching_instances_match_the_reference_search_and_oracle(drawn, cut_nodes):
    """The same tree as the reference, run to the end and cut inside it,
    and the sigma of the oracle."""
    inst, columns = drawn
    result = solve(inst)
    assert result == _reference_solve(inst, SolveBudget().max_nodes)
    assert solve(inst, SolveBudget(max_nodes=cut_nodes)) == _reference_solve(inst, cut_nodes)
    assert result.upper == exhaustive_sigma(set(range(inst.universe_size)), columns, len(columns))


def _check_against_no_action(inst):
    """G's orbits on the columns are the classes that kept columns, and the
    solve with G acting gives the sigma of the same instance read back from
    text, which has no group acting on it."""
    everything = frozenset(range(inst.action.group.order))
    orbits = _Orbits(inst)
    classes = [sum(1 << c for c, k in enumerate(inst.column_class) if k == j)
               for j in range(len(inst.class_labels))]
    assert {orbits.of(everything, c) for c in range(len(inst.column_masks))} == \
        set(classes) - {0}
    result = solve(inst)
    plain = solve(parse_instance(format_instance(inst)))
    assert result.optimal and plain.optimal
    assert result.upper == plain.upper
    return result.upper


DIFFERENTIAL_KEYS = [key for key in library.names()
                     if 1 < library.group(key).order <= LATTICE_MAX_ORDER
                     and not library.group(key).is_cyclic()]


def _check_unseeded_is_seeded(group, mx):
    """The unseeded solve of the whole instance, sigma_exact and the solve
    seeded by hand with the greedy cover's classes return one CoverResult,
    cut at 7 and at 2,000 nodes and run to the end."""
    inst = build_instance(group, group.conjugacy_classes(), mx)
    seed = _class_greedy_seed(group, mx, inst)
    for budget in (SolveBudget(max_nodes=7), SolveBudget(max_nodes=2000), SolveBudget()):
        result = solve(inst, budget)
        assert result == sigma_exact(group, budget, mx=mx)
        assert result == solve(inst, budget, initial_cover=seed)


@pytest.mark.parametrize("key", DIFFERENTIAL_KEYS)
def test_unseeded_solve_is_the_seeded_one(key):
    """The element greedy starts A6 at 18 and AGL17 at 9 columns; the union
    of whole classes starts them at sigma, as the greedy classes do."""
    _check_unseeded_is_seeded(library.group(key), library.maximals(key))


def test_unseeded_solve_is_the_seeded_one_on_the_solvable_suite():
    for group in library.solvable_suite():
        _check_unseeded_is_seeded(group, maximal_classes_computed(group))


def test_class_union_incumbent_beats_the_element_greedy():
    # S5's 4-cycles and 3-cycles under M1, M2 and M3: the element greedy
    # takes 6 columns, the whole class M2 five, which is sigma. Read back
    # from text the instance has no classes to take whole.
    key, elts, subs = CLASS_SELECTIONS[-1][:3]
    inst = _instance(key, elts=elts, subs=subs)
    assert len(_greedy_cover(inst.column_masks, inst.full_mask())) == 6
    first = solve(inst, SolveBudget(max_nodes=1))
    assert first.nodes_explored == 1 and first.upper == 5
    assert first.chosen == tuple(c for c, k in enumerate(inst.column_class) if k == 1)
    assert solve(parse_instance(format_instance(inst)), SolveBudget(max_nodes=1)).upper == 6


@pytest.mark.parametrize("key", DIFFERENTIAL_KEYS)
def test_orbital_branching_matches_the_search_without_symmetry(key, sigma_of):
    """On the whole instance and on each quotient instance of
    is_sigma_elementary: G minus a minimal normal N, covered by the maximal
    classes that contain N (a cyclic quotient leaves G - N uncovered)."""
    assert _check_against_no_action(_instance(key)) == sigma_of(key)
    group, mx = library.group(key), library.maximals(key)
    cls = group.conjugacy_classes()
    for normal in minimal_normal_subgroups(group):
        outside = [c.label for c in cls.classes
                   if group.enumeration.index[c.rep.images] not in normal.elements]
        above = [m.label for m in mx.classes if normal.elements <= m.rep.elements]
        try:
            inst = build_instance(group, cls, mx, outside, above)
        except Infeasible:
            continue
        _check_against_no_action(inst)


CLASS_SELECTIONS = [
    # conjugate subgroups with equal masks; sigma 7 in 35 nodes
    ("AGL32", ["cl_4,1", "cl_2,2", "cl_2,3"], None, 7, True, False),
    # a later class whose masks all repeat an earlier class's
    ("AGL32", ["cl_7,2", "cl_2,3"], None, 8, True, True),
    # a child that kept H instead of H meet N_G(M_c) missed these covers,
    # and an orbit taken under G instead of H the first one
    ("S6", ["cl_2,2", "cl_2,3"], ["M1", "M2", "M3", "M5", "M6"], 4, False, False),
    ("PGL27", ["cl_2,1"], ["M1", "M3", "M4"], 7, False, False),
    ("A6", ["cl_3,2"], ["M1", "M3", "M4", "M5"], 6, False, False),
    # the union of whole classes is below the element greedy
    ("S5", ["cl_4", "cl_3"], ["M1", "M2", "M3"], 5, False, False),
]


@pytest.mark.parametrize("key,elts,subs", [(key, None, None) for key in DIFFERENTIAL_KEYS]
                         + [sel[:3] for sel in CLASS_SELECTIONS])
def test_reduced_universe(key, elts, subs):
    """Column sets built only in the element classes that _minimal_positions
    keeps reduce the universe as the quadratic reference does over every
    position: distinct sets, none inside another, and A6 and AGL32 keep 121
    of 359 and 281 of 1,343 elements."""
    inst = _instance(key, elts=elts, subs=subs)
    cols, sig = _reduce_universe(inst.column_masks, _minimal_positions(inst))
    assert (cols, sig) == _quadratic_reduce_universe(inst.column_masks, inst.universe_size)
    assert len(set(sig)) == len(sig)
    assert not any(a != b and a & b == a for a in sig for b in sig)
    for c, m in enumerate(cols):
        assert m == sum(1 << e for e, s in enumerate(sig) if s >> c & 1)
    pinned = {"A6": (359, 121), "AGL32": (1343, 281)}
    if elts is None and key in pinned:
        assert (inst.universe_size, len(sig)) == pinned[key]


def test_class_filter_on_m11():
    """On M11's bundled instance the filter keeps the 3,420 elements of
    orders 8 and 11, of 7,919, and reduces as reading every position does."""
    group = library.group("M11")
    inst = _instance("M11")
    labels = [c.label for c in group.conjugacy_classes()]
    assignment = group.class_assignment()
    kept = {"cl_11,1", "cl_11,2", "cl_8,1", "cl_8,2"}
    candidates = _minimal_positions(inst)
    assert inst.universe_size == 7919 and candidates.bit_count() == 3420
    assert candidates == sum(1 << p for p, x in enumerate(inst.action.elements)
                             if labels[assignment[x]] in kept)
    assert _reduce_universe(inst.column_masks, candidates) == \
        _reduce_universe(inst.column_masks, inst.full_mask())


@pytest.mark.parametrize("key,elts,subs,sigma,within,cross", CLASS_SELECTIONS)
def test_orbital_branching_on_class_selections(key, elts, subs, sigma, within, cross):
    """Selections as ``covnum exact --classes/--subgroup-classes`` makes
    them, with masks repeated within or across classes, or with covers that
    unsound variants of the rule lose."""
    group, mx = library.group(key), library.maximals(key)
    inst = _instance(key, elts=elts, subs=subs)
    assignment = group.class_assignment()
    universe = {x for x in range(1, group.order) if assignment[x] in inst.action.element_classes}
    masks = [[m & universe for m in mx.classes[mx.by_label(lbl)].members if m & universe]
             for lbl in subs or [c.label for c in mx.classes]]
    assert within == any(len(set(c)) < len(c) for c in masks)
    assert cross == (len(set().union(*masks)) < sum(len(set(c)) for c in masks))
    assert _check_against_no_action(inst) == sigma


@pytest.mark.parametrize("key,elts,subs", [sel[:3] for sel in CLASS_SELECTIONS])
def test_column_orbits_under_proper_subgroups(key, elts, subs):
    """_Orbits.of(H, c), for H each column normalizer and each meet of two,
    is {c^h : h in H}: the brute force conjugates the part of c's subgroup
    in the universe by every h in H with Permutation.conjugated_by and reads
    the column off the resulting mask."""
    group = library.group(key)
    inst = _instance(key, elts=elts, subs=subs)
    elems, index = group.elements(), group.enumeration.index
    assignment = group.class_assignment()
    universe = [x for x in range(1, group.order)
                if assignment[x] in inst.action.element_classes]
    position = {x: p for p, x in enumerate(universe)}
    column_of = {m: c for c, m in enumerate(inst.column_masks)}
    members = [[x for p, x in enumerate(universe) if m >> p & 1] for m in inst.column_masks]

    @cache
    def image(h):  # h's permutation of the columns
        conj = {x: index[elems[x].conjugated_by(elems[h]).images] for x in universe}
        return [column_of[sum(1 << position[conj[x]] for x in member)] for member in members]

    normalizers = {n for n in inst.action.normalizers if n is not None}
    subgroups = normalizers | {a & b for a, b in combinations(normalizers, 2)}
    assert len(subgroups) > len(normalizers) > 1
    orbits = _Orbits(inst)
    for sub in sorted(subgroups, key=sorted):
        for c in range(len(members)):
            assert orbits.of(sub, c) == sum(1 << d for d in {image(h)[c] for h in sub})


@pytest.mark.parametrize("key,elts,subs", [
    ("A5", None, None), ("S5", None, None), ("PGL27", None, None), ("S6", None, None),
    ("A6", None, None), ("AGL32", None, None), *[sel[:3] for sel in CLASS_SELECTIONS]])
def test_search_of_library_text_matches_the_reference_search(key, elts, subs):
    """Library instances read back from text: their searches take up to
    6,166 nodes, where the random instances mostly close at the root."""
    inst = parse_instance(format_instance(_instance(key, elts=elts, subs=subs)))
    for nodes in (7, 100, SolveBudget().max_nodes):
        assert solve(inst, SolveBudget(max_nodes=nodes)) == _reference_solve(inst, nodes)


def test_search_sizes():
    """Node counts, seeded and unseeded. A node tries the independence bound
    first and the ceiling bound only when that does not prune; the counts
    are those of pruning on the larger of the two. With the symmetry broken
    only at the root, A6 took 2,303 nodes seeded and 6,152 unseeded, and
    AGL32 929 either way; orbital branching below the root takes fewer.
    Starting from the element greedy's 18 columns, unseeded A6 took 3,920
    nodes; the smallest union of whole classes starts it at 16."""
    a6 = sigma_exact(library.group("A6"), mx=library.maximals("A6"))
    assert a6.upper == 16 and a6.nodes_explored == 970 < 2303
    assert solve(_instance("A6")).nodes_explored == 970 < 3920
    agl32 = sigma_exact(library.group("AGL32"), mx=library.maximals("AGL32"))
    assert agl32.upper == 15 and agl32.nodes_explored == 212 < 929
    assert solve(_instance("AGL32")).nodes_explored == 212
    # whole results: A6 seeded and unseeded cut at 7 and 2,000 nodes, three
    # more groups through sigma_exact, and the class selections
    group, mx = library.group("A6"), library.maximals("A6")
    for nodes, seeded, unseeded in SEARCH_TREES_A6:
        assert sigma_exact(group, SolveBudget(max_nodes=nodes), mx=mx) == CoverResult(*seeded)
        assert solve(_instance("A6"), SolveBudget(max_nodes=nodes)) == CoverResult(*unseeded)
    for key, tree in SEARCH_TREES_SIGMA_EXACT.items():
        assert sigma_exact(library.group(key), mx=library.maximals(key)) == CoverResult(*tree)
    for (key, elts, subs, *_), tree in zip(CLASS_SELECTIONS, SEARCH_TREES_SELECTIONS):
        assert solve(_instance(key, elts=elts, subs=subs)) == CoverResult(*tree)


# (lower, upper, chosen, nodes_explored, budget_exhausted) of whole searches
SEARCH_TREES_A6 = [  # max_nodes, seeded, unseeded
    (7, (10, 16, (0, 1, 2, 3, 4, 5, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21), 7, True),
     (10, 16, (0, 1, 2, 3, 4, 5, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21), 7, True)),
    (2000, (16, 16, (0, 1, 2, 3, 4, 5, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21), 970, False),
     (16, 16, (0, 1, 2, 3, 4, 5, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21), 970, False)),
]
SEARCH_TREES_SIGMA_EXACT = {
    "S6": (13, 13, (0, 1, 7, 2, 9, 3, 11, 4, 5, 6, 8, 10, 12), 39, False),
    "PGL27": (29, 29, (*range(7), *range(9, 30), 7), 17, False),
    "M11": (23, 23, tuple(range(23)), 1, False),
}
SEARCH_TREES_SELECTIONS = [  # in the order of CLASS_SELECTIONS
    (7, 7, (0, 1, 6, 2, 3, 4, 5), 35, False),
    (8, 8, (1, 2, 3, 4, 5, 6, 7, 8), 1, False),
    (4, 4, (13, 29, 27, 15), 19, False),
    (7, 7, (5, 9, 25, 46, 12, 47, 24), 55, False),
    (6, 6, (15, 18, 21, 20, 24, 19), 15, False),
    (5, 5, (1, 2, 3, 4, 5), 7, False),
]


@pytest.mark.parametrize("nodes", [7, 2000])
def test_cut_search_brackets_sigma(nodes):
    # A6 closes within 2,000 nodes, seeded or not, and not within 7
    group, mx = library.group("A6"), library.maximals("A6")
    for result in (sigma_exact(group, SolveBudget(max_nodes=nodes), mx=mx),
                   solve(_instance("A6"), SolveBudget(max_nodes=nodes))):
        assert result.lower <= 16 <= result.upper
        assert result.optimal == (result.nodes_explored < nodes)


@pytest.mark.parametrize("key", ["V4", "S3", "D8", "Q8", "S4", "A4", "D10", "D12",
                                 "F21", "C3xC3", "AGL13", "AGL14", "AGL15", "AGL17",
                                 "AGL18", "A5", "S5", "A5xC2", "PSL27"])
def test_oracle_equivalence_maximal_columns(key, sigma_of):
    group = library.group(key)
    mx = library.maximals(key)
    columns = [member for cls in mx.classes for member in cls.members]
    value = sigma_of(key)
    assert exhaustive_sigma(set(range(1, group.order)), columns, value + 1) == value


@pytest.mark.parametrize("key", ["V4", "S3", "D8", "Q8", "S4", "A4", "D10", "D12",
                                 "F21", "C3xC3", "AGL13", "AGL14", "AGL15", "AGL17",
                                 "AGL18", "A5"])
def test_oracle_equivalence_all_proper_subgroups(key, sigma_of):
    group = library.group(key)
    assert group.order <= 60
    columns = [s.elements for s in all_subgroups(group) if 1 < s.order < group.order]
    value = sigma_of(key)
    assert exhaustive_sigma(set(range(1, group.order)), columns, value + 1) == value


def test_quotient_monotonicity(sigma_of):
    for key in ["V4", "S3", "D8", "Q8", "S4", "D12", "A4", "A5xC2", "AGL18", "AGL32"]:
        group = library.group(key)
        sigma = sigma_of(key)
        for sub in normal_subgroups(group):
            if sub.order in (1, group.order):
                continue
            image, _ = coset_action(sub)
            if image.is_cyclic():
                continue  # sigma of the quotient is infinite
            result = sigma_exact(image)
            assert result.optimal
            assert sigma <= result.upper, (key, sub.order)

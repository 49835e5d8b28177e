"""Exact minimum set cover over conjugacy classes of maximal subgroups.

The instance is element-level: the universe is every element of the selected
element classes, one column per subgroup (every conjugate of each selected
class representative), coverage stored as int bitmasks. The solver is plain
branch and bound: the greedy cover as incumbent, or the smallest union of
whole classes when G acts and it is smaller, a dual bound from a greedily
grown set of pairwise-independent elements (no two sharing a column), unit
propagation for elements with a single remaining column, and orbital
branching on G's conjugation action on the columns (Ostrowski, Linderoth,
Rossi and Smriglio, "Orbital branching", Math. Programming 126, 2011). The
search is one loop over an explicit stack of frames, so its depth is not
bounded by Python's recursion limit.

Each frame carries a subgroup H of G that maps the frame's feasible covers
onto each other; the root has H = G. While H is nontrivial, a node takes the
first column c of its branching order and pushes two children: one takes c,
with H meet N_G(M_c) (which fixes c), and one bans c's whole H-orbit, with
H. A cover meeting the orbit is moved by some h in H to one that contains c,
and the banned columns stay a union of H-orbits. Under G the orbits are the
classes, so the root's first level pins one column per class; under a proper
H they are walked over H's generators, each read as a word in G's generators
by the enumeration (groups.Enumeration.word). A column's image under a generator of G
is the column whose mask is its own conjugated by that generator, built once
per generator and column. Once H is trivial a node branches on each live
column of its element, each child banning its earlier siblings. Forced
columns keep H, since every feasible cover of the frame already contains
them.

The search runs on a reduced universe: one element per inclusion-minimal
column set, since a column set covering that element covers every element
whose column set contains it (x and x^k with gcd(k, |x|) = 1 lie in the same
subgroups). G permutes the columns and the elements together, so whether an
element's column set is minimal depends only on its class: the first element
of each class decides it, and column sets are built only in the classes
kept. Each kept element carries its column set as a bitmask over columns,
and they are numbered rarest first. A node walks its uncovered elements once,
in that order: the pass forces the columns of elements down to one unbanned
column, takes the live columns (not banned, still covering something) and
picks the branch element, the one with the fewest. Both bounds then only
test whether they reach the columns to spare, each stopping once it knows;
the packing reads the same order, so a frame carries one covered set. The
incumbent is checked against the whole universe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import compress
from math import ceil

from .errors import CovnumError, CyclicGroup, Infeasible, ParseError
from .groups import ConjClassTable, PermGroup, orbit
from .perms import Permutation, format_cycles, take
from .subgroups import LATTICE_MAX_ORDER, MaxClassSet, maximal_classes_computed


_TRIVIAL = frozenset({0})  # the identity subgroup, as element ids


@dataclass(frozen=True)
class _ColumnAction:
    """G's conjugation action on an instance's columns: the element classes
    that make up the universe, the universe's element ids by position, and
    for each column the normalizer of its subgroup as element ids (None for
    G)."""

    group: PermGroup
    element_classes: frozenset[int]
    elements: tuple[int, ...]
    normalizers: tuple[frozenset[int] | None, ...]


@dataclass(frozen=True)
class CoverInstance:
    universe_size: int
    column_masks: tuple[int, ...]
    column_class: tuple[int, ...]      # class index per column
    class_labels: tuple[str, ...]
    action: _ColumnAction | None = None  # G acting on the columns, whose orbits are the classes

    def full_mask(self) -> int:
        return (1 << self.universe_size) - 1


@dataclass(frozen=True)
class CoverResult:
    lower: int
    upper: int
    chosen: tuple[int, ...]
    nodes_explored: int
    budget_exhausted: bool

    @property
    def optimal(self) -> bool:
        """Whether the bracket is closed, so that ``upper`` is the minimum."""
        return self.lower == self.upper


@dataclass(frozen=True)
class SolveBudget:
    """The budget of an exact computation. ``max_nodes`` and ``time_limit``
    (seconds from the entry to ``solve``) bound the search; running out of
    either ends it with a sound (lower, upper) bracket. ``lattice_max_order``
    bounds the groups whose maximal classes are computed; a larger group
    raises BudgetExceeded."""

    max_nodes: int = 5_000_000
    time_limit: float | None = None
    lattice_max_order: int = LATTICE_MAX_ORDER


def build_instance(group: PermGroup, cls: ConjClassTable, mx: MaxClassSet,
                   elts=None, subs=None) -> CoverInstance:
    """Cover instance for the selected element classes and subgroup classes
    (labels; None selects everything)."""
    elt_labels = [c.label for c in cls.classes] if elts is None else list(elts)
    sub_labels = [m.label for m in mx.classes] if subs is None else list(subs)
    alg = group.enumeration
    assignment = group.class_assignment()
    selected = frozenset(cls.by_label(lbl) for lbl in elt_labels)
    universe = tuple(x for x in range(1, alg.n) if assignment[x] in selected)
    full = (1 << len(universe)) - 1
    position = [len(universe)] * alg.n  # an id outside the universe sets a spare bit
    for p, x in enumerate(universe):
        position[x] = p
    masks: list[int] = []
    col_class: list[int] = []
    normalizers: list[frozenset[int] | None] = []
    labels: list[str] = []
    seen_masks: set[int] = set()
    for out_idx, lbl in enumerate(sub_labels):
        mcls = mx.classes[mx.by_label(lbl)]
        labels.append(lbl)
        for member in mcls.members:
            buf = bytearray(len(universe) // 8 + 1)  # the mask and the spare bit
            for p in take(member)(position):
                buf[p >> 3] |= 1 << (p & 7)
            mask = int.from_bytes(buf, "little") & full
            # G permutes the masks, so a mask met in an earlier class brings
            # its whole class with it and the classes with columns stay the
            # G-orbits; a column keeps its first member, whose normalizer
            # fixes the mask even when a conjugate shares it
            if mask == 0 or mask in seen_masks:
                continue
            seen_masks.add(mask)
            masks.append(mask)
            col_class.append(out_idx)
            normalizers.append(member if mcls.self_normalizing else None)
    covered = 0
    for m in masks:
        covered |= m
    if covered != full:
        x = universe[next(_bits(full & ~covered))]
        witness = Permutation._trusted(alg.elems[x])
        raise Infeasible(
            f"element {format_cycles(witness)} of class "
            f"{cls.classes[assignment[x]].label} lies in no selected subgroup",
            witness=witness)
    return CoverInstance(
        universe_size=len(universe),
        column_masks=tuple(masks),
        column_class=tuple(col_class),
        class_labels=tuple(labels),
        action=_ColumnAction(group, selected, universe, tuple(normalizers)),
    )


def _greedy_cover(masks, full: int) -> list[int]:
    """Greedy cover: the column covering most of what is uncovered, lowest
    first among ties, until nothing is gained. Lazily: the heap keys
    (-gain, column) are computed when pushed and gains only fall, so a
    popped column whose fresh key is still no larger than the top wins."""
    heap = [(-m.bit_count(), c) for c, m in enumerate(masks) if m]
    heapify(heap)
    chosen = []
    cov = 0
    while heap and cov != full:
        c = heappop(heap)[1]
        key = (-(masks[c] & ~cov).bit_count(), c)
        if heap and key > heap[0]:
            heappush(heap, key)
        elif key[0]:
            chosen.append(c)
            cov |= masks[c]
        else:
            break
    return chosen


_FLAGS = bytes.maketrans(b"01", b"\0\1")
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _bits(mask: int):
    """Positions of the set bits of ``mask``, lowest first: of a dense mask
    by compress at C speed, of a sparse one by a search for each 1."""
    text = bin(mask)[:1:-1]
    if mask.bit_count() * 10 >= len(text):
        return compress(range(len(text)), text.encode().translate(_FLAGS))
    return _ones(text)


def _ones(text: str):
    p = text.find("1")
    while p >= 0:
        yield p
        p = text.find("1", p + 1)


def _minimal_positions(instance: CoverInstance) -> int:
    """The positions whose column sets are inclusion-minimal, as a mask;
    without an action, every position. G permutes the columns and the
    elements together, so minimality holds of whole element classes: a class
    is kept unless, for the column set s of its first element, some element
    lies in no column outside s yet misses a column in s."""
    action, full = instance.action, instance.full_mask()
    if action is None:
        return full
    assignment = action.group.class_assignment()
    classes = take(action.elements)(assignment)
    minimal = set()
    for k in action.element_classes:
        p = classes.index(k)
        outside, common = 0, full  # the union of the columns outside s, the meet of those in s
        for m in instance.column_masks:
            if m >> p & 1:
                common &= m
            else:
                outside |= m
        if outside | common == full:
            minimal.add(k)
    return int(bytes(map(minimal.__contains__, reversed(classes))).translate(_DIGITS), 2)


def _reduce_universe(masks, candidates: int) -> tuple[list[int], list[int]]:
    """Column masks over a reduced universe, and each kept element's column
    set as a mask over columns. One element is kept per inclusion-minimal
    column set, the lowest position among equals, rarest first (by set size,
    then position); only the ``candidates`` mask's positions are read, and
    it must hold every position whose set is minimal. Every element's column
    set contains a kept one, so a set of columns covers the reduced universe
    exactly when it covers the whole one.

    The distinct sets are taken by size, in a stable sort of position order,
    so a kept set is tested only against smaller ones; those are filed under
    their lowest column, and a set can contain only those filed under one of
    its own columns."""
    sig = dict.fromkeys(_bits(candidates), 0)  # each candidate's column set
    for c, m in enumerate(masks):
        for p in _bits(m & candidates):
            sig[p] |= 1 << c
    first: dict[int, int] = {}
    for p, s in sig.items():
        first.setdefault(s, p)
    kept: list[int] = []
    by_lowest: list[list[int]] = [[] for _ in masks]
    for s in sorted(first, key=int.bit_count):
        if not any(k & s == k for c in _bits(s) for k in by_lowest[c]):
            kept.append(s)
            by_lowest[(s & -s).bit_length() - 1].append(s)
    reduced = [0] * len(masks)
    for r, s in enumerate(kept):
        for c in _bits(s):
            reduced[c] |= 1 << r
    return reduced, kept


class _Orbits:
    """Orbits on the columns of subgroups H of G, each H given as element
    ids, built at the first node that needs one.

    G permutes the columns, and no two columns share a mask, so column c's
    image under generator k of G is the column whose mask is c's with every
    element x replaced by its conjugate under that generator; it is read
    once per (k, c). An element h of H moves a column along h's word over
    the generators, which the enumeration reads off its Schreier tree."""

    def __init__(self, instance: CoverInstance):
        self.enum = instance.action.group.enumeration
        self.elements = instance.action.elements
        self.position = {x: p for p, x in enumerate(self.elements)}
        self.masks = instance.column_masks
        self.column_of = {m: c for c, m in enumerate(self.masks)}
        self.moves = [[None] * len(self.masks) for _ in self.enum.gen_cols]
        # per subgroup: its generators' words, and the orbit mask of each
        # column met so far
        self.known: dict[frozenset[int], tuple[list, dict[int, int]]] = {}

    def _along(self, word: list[int], c: int) -> int:
        """Column c's image under the product of ``word``, each generator's
        image of a column built the first time it is asked for."""
        for k in word:
            d = self.moves[k][c]
            if d is None:
                conj = self.enum.conjugation_maps[k]
                position, elements = self.position, self.elements
                mask = 0
                for p in _bits(self.masks[c]):
                    mask |= 1 << position[conj[elements[p]]]
                d = self.moves[k][c] = self.column_of[mask]
            c = d
        return c

    def of(self, sub: frozenset[int], c: int) -> int:
        """The orbit of column c under the subgroup ``sub``, as a mask."""
        if sub not in self.known:
            self.known[sub] = [self.enum.word(h) for h in self.enum.generating_ids(sub)], {}
        words, known = self.known[sub]
        if c not in known:
            found = orbit(c, lambda d: [self._along(word, d) for word in words])
            mask = sum(1 << d for d in found)
            for d in found:
                known[d] = mask
        return known[c]


def _class_union_cover(class_columns, class_covers, full: int, best: list[int]) -> list[int]:
    """The smallest union of whole classes that covers, its columns in column
    order, if it has fewer columns than ``best``; else ``best``. Depth first
    over the classes in order, each taken before it is skipped: a union grows
    only while smaller than the best so far, so the first smallest one found
    is kept, and is cut once the classes left cannot complete it."""
    reach = [0] * (len(class_covers) + 1)  # reach[k]: what classes k onward cover
    for k in range(len(class_covers) - 1, -1, -1):
        reach[k] = reach[k + 1] | class_covers[k]
    stack = [(0, 0, 0)]  # (next class, covered elements, union's columns)
    while stack:
        k, cov, union = stack.pop()
        if union.bit_count() >= len(best) or cov | reach[k] != full:
            continue
        if cov == full:
            best = list(_bits(union))
            continue
        stack.append((k + 1, cov, union))
        if class_columns[k]:
            stack.append((k + 1, cov | class_covers[k], union | class_columns[k]))
    return best


def _result(masks, full: int, best: list[int], lower: int, nodes: int,
            exhausted: bool) -> CoverResult:
    """The result, once the incumbent is checked against the whole universe."""
    cov = 0
    for c in best:
        cov |= masks[c]
    if cov != full:
        raise CovnumError(f"incumbent of size {len(best)} is not a cover")
    return CoverResult(lower=lower, upper=len(best), chosen=tuple(best),
                       nodes_explored=nodes, budget_exhausted=exhausted)


def solve(instance: CoverInstance, budget: SolveBudget = SolveBudget(),
          initial_cover=None) -> CoverResult:
    """Branch-and-bound minimum cover. The incumbent is the greedy cover or
    a smaller ``initial_cover``; with an action, the smallest union of whole
    classes when smaller still. A search cut by the budget returns the root
    dual bound as ``lower``, so the bracket stays sound. The time limit
    counts from entry, both incumbents, the universe reduction and the root
    bounds included; it is checked after both incumbents and at every node.
    An element that no column covers raises Infeasible before any search.
    The tree is the one that propagates from the lowest element again after
    each forced column and computes both bounds in full; each node does it
    in one pass and two early exits."""
    deadline = None if budget.time_limit is None else time.monotonic() + budget.time_limit
    masks = instance.column_masks
    full = instance.full_mask()
    if instance.universe_size == 0:
        return CoverResult(0, 0, (), 0, False)
    covered = 0
    for m in masks:
        covered |= m
    if covered != full:
        missing = next(_bits(full & ~covered))
        raise Infeasible(f"element {missing} lies in no column", witness=missing)

    best = _greedy_cover(masks, full)
    if initial_cover is not None:
        cov = 0
        for c in initial_cover:
            cov |= masks[c]
        if cov == full and len(initial_cover) < len(best):
            best = list(initial_cover)
    action = instance.action
    if action is not None:
        class_columns = [0] * len(instance.class_labels)
        class_covers = class_columns.copy()
        for c, k in enumerate(instance.column_class):
            class_columns[k] |= 1 << c
            class_covers[k] |= masks[c]
        best = _class_union_cover(class_columns, class_covers, full, best)
    if deadline is not None and time.monotonic() > deadline:
        # out of time before the reduction: the ceiling bound on the whole universe
        lower = ceil(instance.universe_size / max(m.bit_count() for m in masks))
        return _result(masks, full, best, lower, 0, True)
    best_size = len(best)

    # the search runs on the reduced universe, rarest element first: cols[c]
    # is column c over it, sig[e] the columns of element e, block[e] the
    # elements sharing a column with e.
    cols, sig = _reduce_universe(masks, _minimal_positions(instance))
    U = len(sig)
    rfull = (1 << U) - 1
    block = [0] * U
    for e, s in enumerate(sig):
        for c in _bits(s):
            block[e] |= cols[c]

    def packing(cov: int, room: int) -> int:
        """Uncovered elements no two of which share a column, taken greedily
        rarest first and counted up to ``room``: a lower bound on the
        columns still needed."""
        free, count = rfull ^ cov, 0
        while free and count < room:
            count += 1
            free &= ~block[(free & -free).bit_length() - 1]
        return count

    root_lower = max(packing(0, U), ceil(U / max(m.bit_count() for m in cols)), 1)

    # Search frames (cov, banned, chosen, group), popped depth first.
    # The group maps the frame's feasible covers onto each other: None stands
    # for G, whose orbits are the classes, and a frozenset of element ids
    # for a subgroup. Without an action the group is trivial from the root.
    stack = [(0, 0, (), _TRIVIAL if action is None else None)]
    orbits = None
    nodes = 0
    exhausted = False
    while stack:
        cov, banned, chosen, group = stack.pop()
        depth = len(chosen)
        if depth >= best_size:
            continue  # best_size only shrinks, so later siblings are cut too
        nodes += 1
        if nodes >= budget.max_nodes or (deadline is not None and time.monotonic() > deadline):
            exhausted = True
            break
        # One pass over the uncovered elements, rarest first: one with a
        # single unbanned column forces it, one with none cuts the node, the
        # rest survive. Covering others leaves an element's unbanned columns
        # as they are, so this forces what restarting from the lowest would.
        unbanned = ~banned
        survivors, avails = [], []  # the elements left, and their unbanned columns
        for e in _bits(rfull ^ cov):
            avail = sig[e] & unbanned
            if avail & (avail - 1):
                survivors.append(e)
                avails.append(avail)
            elif cov >> e & 1:
                continue  # covered by a column forced in this pass
            elif not avail or len(chosen) + 1 >= best_size:
                avails = None  # no live column, or a forced column that cannot win
                break
            else:
                c = avail.bit_length() - 1
                chosen += (c,)
                cov |= cols[c]
        if avails is None:
            continue
        if len(chosen) > depth:
            avails = [a for e, a in zip(survivors, avails) if not cov >> e & 1]
        if not avails:  # everything covered: a new incumbent
            best, best_size = list(chosen), len(chosen)
            continue
        # live columns: not banned, and still covering something; the branch
        # element has the fewest, the rarest on ties
        live = 0
        for avail in avails:
            live |= avail
        branch = min(avails, key=int.bit_count)
        # both bounds as tests against room, the cheaper packing first: it
        # prunes on reaching room, the ceiling bound unless some live column
        # has ceil(uncovered / its gain) < room, as the larger bound would
        room = best_size - len(chosen)
        if packing(cov, room) >= room:
            continue
        uncov = rfull ^ cov
        need = -(-uncov.bit_count() // (room - 1))  # room > 1, or the packing pruned
        for c in _bits(live):
            if (cols[c] & uncov).bit_count() >= need:
                break
        else:
            continue
        # the branching order: most newly covered first, the lowest column on ties
        def gain(c: int) -> tuple[int, int]:
            return -(cols[c] & uncov).bit_count(), c
        if group is None or len(group) > 1:
            # orbital branching: take the first column, or ban its orbit
            c = min(_bits(branch), key=gain)
            normalizer = action.normalizers[c]
            if group is None:
                orbit_c = class_columns[instance.column_class[c]]
                stabilizer = normalizer
            else:
                if orbits is None:
                    orbits = _Orbits(instance)
                orbit_c = orbits.of(group, c)
                stabilizer = group if normalizer is None else group & normalizer
            stack.append((cov, banned | orbit_c, chosen, group))
            stack.append((cov | cols[c], banned, chosen + (c,), stabilizer))
            continue
        # children in branching order, each banning its earlier siblings,
        # pushed so that the first is popped first
        children = []
        for c in sorted(_bits(branch), key=gain):
            children.append((cov | cols[c], banned, chosen + (c,), group))
            banned |= 1 << c
        stack.extend(reversed(children))

    # a root dual bound meeting the incumbent proves optimality even if the
    # search itself was cut short
    return _result(masks, full, best, min(root_lower, best_size) if exhausted else best_size,
                   nodes, exhausted)


def sigma_exact(group: PermGroup, budget: SolveBudget = SolveBudget(),
                mx: MaxClassSet | None = None) -> CoverResult:
    """Exact covering number via set cover over all nonidentity classes and
    all maximal subgroup classes (minimal covers can always be taken there),
    solved without a seed of its own. Without ``mx`` the maximal classes are
    computed, within the budget's lattice cap."""
    if group.is_cyclic():
        raise CyclicGroup("cyclic groups have infinite covering number")
    if mx is None:
        mx = maximal_classes_computed(group, budget.lattice_max_order)
    return solve(build_instance(group, group.conjugacy_classes(), mx), budget)


# ---------------------------------------------------------------------------
# Portable instance text format and LP emitter
# ---------------------------------------------------------------------------

def format_instance(instance: CoverInstance) -> str:
    """Text form: 'universe N', 'columns M', then per column a sorted list of
    covered element positions."""
    lines = [f"universe {instance.universe_size}", f"columns {len(instance.column_masks)}"]
    for c, m in enumerate(instance.column_masks):
        if not m:
            label = instance.class_labels[instance.column_class[c]]
            raise CovnumError(f"column {c} ({label}) covers nothing, "
                              "and the text form has no empty lines")
        lines.append(" ".join(map(str, _bits(m))))
    return "\n".join(lines) + "\n"


def _count(token: str, what: str, lineno: int) -> int:
    """A nonnegative integer token of instance text."""
    if not (token.isascii() and token.isdigit()):
        raise ParseError(f"bad {what} {token!r}", lineno)
    return int(token)


def parse_instance(text: str) -> CoverInstance:
    lines = [(lineno, ln.split()) for lineno, ln in enumerate(text.splitlines(), start=1)
             if ln.strip()]
    if len(lines) < 2 or lines[0][1][0] != "universe" or lines[1][1][0] != "columns" \
            or len(lines[0][1]) != 2 or len(lines[1][1]) != 2:
        raise ParseError("expected 'universe N' and 'columns M' headers")
    universe = _count(lines[0][1][1], "universe", lines[0][0])
    ncols = _count(lines[1][1][1], "columns", lines[1][0])
    if len(lines) != 2 + ncols:
        raise ParseError(f"expected {ncols} column lines, found {len(lines) - 2}")
    masks = []
    for lineno, tokens in lines[2:]:
        mask = 0
        for tok in tokens:
            p = _count(tok, "element", lineno)
            if p >= universe:
                raise ParseError(f"element {p} out of range", lineno)
            mask |= 1 << p
        masks.append(mask)
    return CoverInstance(
        universe_size=universe,
        column_masks=tuple(masks),
        column_class=tuple(range(len(masks))),
        class_labels=tuple(f"C{i + 1}" for i in range(len(masks))),
    )


def format_lp(instance: CoverInstance, name: str = "cover") -> str:
    """CPLEX-LP text for the same instance: minimize the number of chosen
    columns subject to one >=1 constraint per element. No solver is invoked."""
    cols = [f"x{c}" for c in range(len(instance.column_masks))]
    lines = [f"\\ minimum subgroup cover: {name}", "Minimize", " obj: " + " + ".join(cols)]
    lines.append("Subject To")
    covering: list[list[str]] = [[] for _ in range(instance.universe_size)]
    for c, m in enumerate(instance.column_masks):
        for e in _bits(m):
            covering[e].append(cols[c])
    for e, row in enumerate(covering):
        lines.append(f" e{e}: " + " + ".join(row) + " >= 1")
    lines.append("Binary")
    for x in cols:
        lines.append(f" {x}")
    lines.append("End")
    return "\n".join(lines) + "\n"

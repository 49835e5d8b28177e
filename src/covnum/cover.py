"""Exact minimum set cover over conjugacy classes of maximal subgroups.

The instance is element-level: the universe is every element of the selected
element classes, one column per subgroup (every conjugate of each selected
class representative), coverage stored as int bitmasks. The solver is plain
branch and bound: greedy incumbent, a dual bound from a greedily grown set
of pairwise-independent elements (no two sharing a column), unit propagation
for elements with a single remaining column, and class-level symmetry
breaking for the first decision only. The search is one loop over an
explicit stack of frames, so its depth is not bounded by Python's recursion
limit; the symmetry pinning is the stack's root frames.

The search runs on a reduced universe: one element per inclusion-minimal
column set, since a column set covering that element covers every element
whose column set contains it (x and x^k with gcd(k, |x|) = 1 lie in the
same subgroups). Each kept element carries its column set as a bitmask over
columns. A node takes the live columns (not banned, still covering
something) in one pass, and branches on the uncovered element with the
fewest live columns. The incumbent is checked against the whole universe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import ceil

from .errors import CovnumError, CyclicGroup, Infeasible, ParseError
from .greedy import covering_number_bounds
from .groups import ConjClassTable, PermGroup
from .perms import format_cycles
from .subgroups import LATTICE_MAX_ORDER, MaxClassSet, algebra, maximal_classes_computed


@dataclass(frozen=True)
class CoverInstance:
    universe_size: int
    column_masks: tuple[int, ...]
    column_class: tuple[int, ...]      # class index per column
    class_labels: tuple[str, ...]
    symmetric: bool = True             # columns within a class interchangeable

    def full_mask(self) -> int:
        return (1 << self.universe_size) - 1

    def columns_of_class(self, class_index: int) -> list[int]:
        return [c for c, k in enumerate(self.column_class) if k == class_index]


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
    alg = algebra(group)
    assignment = group.class_assignment()
    selected = {cls.by_label(lbl) for lbl in elt_labels}
    universe = [x for x in range(1, alg.n) if assignment[x] in selected]
    position = {x: p for p, x in enumerate(universe)}
    masks: list[int] = []
    col_class: list[int] = []
    labels: list[str] = []
    seen_masks: dict[int, int] = {}
    cross_collision = False
    for out_idx, lbl in enumerate(sub_labels):
        mcls = mx.classes[mx.by_label(lbl)]
        labels.append(lbl)
        for member in mcls.members:
            mask = 0
            for x in member:
                p = position.get(x)
                if p is not None:
                    mask |= 1 << p
            if mask == 0:
                continue
            prev = seen_masks.get(mask)
            if prev is not None:
                # duplicates within a class keep the conjugation symmetry;
                # across classes they break it, so flag the instance
                if prev != out_idx:
                    cross_collision = True
                continue
            seen_masks[mask] = out_idx
            masks.append(mask)
            col_class.append(out_idx)
    covered = 0
    for m in masks:
        covered |= m
    full = (1 << len(universe)) - 1
    if covered != full:
        x = universe[next(_bits(full & ~covered))]
        raise Infeasible(
            f"element {format_cycles(alg.elems[x])} of class "
            f"{cls.classes[assignment[x]].label} lies in no selected subgroup",
            witness=alg.elems[x])
    return CoverInstance(
        universe_size=len(universe),
        column_masks=tuple(masks),
        column_class=tuple(col_class),
        class_labels=tuple(labels),
        symmetric=not cross_collision,
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


def _bits(mask: int):
    """Positions of the set bits of ``mask``, lowest first."""
    text = bin(mask)[:1:-1]
    p = text.find("1")
    while p >= 0:
        yield p
        p = text.find("1", p + 1)


def _reduce_universe(masks, universe_size: int) -> tuple[list[int], list[int]]:
    """Column masks over a reduced universe, and each kept element's column
    set as a mask over columns. One element is kept per inclusion-minimal
    column set, the lowest position among equals, in position order. Every
    element's column set contains a kept one, so a set of columns covers the
    reduced universe exactly when it covers the whole one."""
    sig = [0] * universe_size
    for c, m in enumerate(masks):
        for p in _bits(m):
            sig[p] |= 1 << c
    first: dict[int, int] = {}
    for p, s in enumerate(sig):
        first.setdefault(s, p)
    kept: list[int] = []
    for s in sorted(first, key=int.bit_count):
        if not any(k & s == k for k in kept):
            kept.append(s)
    kept.sort(key=first.__getitem__)
    reduced = [0] * len(masks)
    for r, s in enumerate(kept):
        for c in _bits(s):
            reduced[c] |= 1 << r
    return reduced, kept


def solve(instance: CoverInstance, budget: SolveBudget = SolveBudget(),
          initial_cover=None) -> CoverResult:
    """Branch-and-bound minimum cover. A search cut by the budget returns
    the root dual bound as ``lower``, so the bracket stays sound. The time
    limit counts from entry, so it includes the greedy incumbent, the
    universe reduction and the root bounds; it is checked at every node.
    An element that no column covers raises Infeasible before any search."""
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
    best_size = len(best)

    # the search runs on the reduced universe: cols[c] is column c over it,
    # sig[e] the columns of element e
    cols, sig = _reduce_universe(masks, instance.universe_size)
    U = len(sig)
    rfull = (1 << U) - 1
    rarity_order = sorted(range(U), key=lambda e: (sig[e].bit_count(), e))

    def independent_bound(cov: int) -> int:
        blocked = 0  # bitmask over columns
        count = 0
        for e in rarity_order:
            if cov >> e & 1 or sig[e] & blocked:
                continue
            blocked |= sig[e]
            count += 1
        return count

    def ceil_bound(cov: int, live: int) -> int:
        rem = (rfull & ~cov).bit_count()
        if rem == 0:
            return 0
        biggest = max(((cols[c] & ~cov).bit_count() for c in _bits(live)), default=0)
        return ceil(rem / biggest) if biggest else U + 1

    root_lower = max(independent_bound(0), ceil_bound(0, (1 << len(cols)) - 1), 1)

    # Search frames (cov, banned, chosen), popped depth first. With symmetry,
    # any cover uses some class first (in class order); conjugacy makes that
    # class's columns interchangeable, so the root frames pin its least column
    # and ban the earlier classes, as an interior node bans earlier siblings.
    # The pinning is sound only for the first decision.
    stack = [(0, 0, ())]
    if instance.symmetric and instance.class_labels:
        stack, banned = [], 0
        for k in range(len(instance.class_labels)):
            cols_k = instance.columns_of_class(k)
            if cols_k:
                stack.append((cols[cols_k[0]], banned, (cols_k[0],)))
            for c in cols_k:
                banned |= 1 << c
        stack.reverse()
    nodes = 0
    exhausted = False
    while stack:
        cov, banned, chosen = stack.pop()
        if len(chosen) >= best_size:
            continue  # best_size only shrinks, so later siblings are cut too
        nodes += 1
        if nodes >= budget.max_nodes or (deadline is not None and time.monotonic() > deadline):
            exhausted = True
            break
        # unit propagation: elements with one live column are forced
        while cov != rfull:
            uncovered = list(_bits(rfull & ~cov))
            # live columns: not banned, and still covering something
            live = 0
            for e in uncovered:
                live |= sig[e]
            live &= ~banned
            # branch on the element with the fewest live columns, the lowest
            # position on ties
            branch, fewest = 0, len(cols) + 1
            for e in uncovered:
                avail = sig[e] & live
                k = avail.bit_count()
                if k < fewest:
                    branch, fewest = avail, k
                    if k <= 1:
                        break
            if fewest != 1 or len(chosen) + 1 >= best_size:
                break
            c = branch.bit_length() - 1
            chosen += (c,)
            cov |= cols[c]
        else:  # everything covered: a new incumbent if smaller
            if len(chosen) < best_size:
                best, best_size = list(chosen), len(chosen)
            continue
        if fewest <= 1:
            continue  # an element with no live column, or a forced column that cannot win
        # max(a, b) >= m exactly when a >= m or b >= m, so the cheaper
        # independence bound goes first and the ceiling bound only when it
        # does not prune: the same prunes as the maximum of the two
        room = best_size - len(chosen)
        if independent_bound(cov) >= room or ceil_bound(cov, live) >= room:
            continue
        # children in branching order, each banning its earlier siblings,
        # pushed so that the first is popped first
        children = []
        for c in sorted(_bits(branch), key=lambda c: (-(cols[c] & ~cov).bit_count(), c)):
            children.append((cov | cols[c], banned, chosen + (c,)))
            banned |= 1 << c
        stack.extend(reversed(children))

    # a root dual bound meeting the incumbent proves optimality even if the
    # search itself was cut short
    lower = min(root_lower, best_size) if exhausted else best_size
    # the incumbent is checked against the whole universe, not the reduced one
    cov = 0
    for c in best:
        cov |= masks[c]
    if cov != full or len(best) != best_size:
        raise CovnumError(f"incumbent of size {len(best)} is not a cover of size {best_size}")
    return CoverResult(
        lower=lower,
        upper=best_size,
        chosen=tuple(best),
        nodes_explored=nodes,
        budget_exhausted=exhausted,
    )


def sigma_exact(group: PermGroup, budget: SolveBudget = SolveBudget(),
                mx: MaxClassSet | None = None) -> CoverResult:
    """Exact covering number via set cover over all nonidentity classes and
    all maximal subgroup classes (minimal covers can always be taken there).
    The search starts from the greedy cover as its incumbent. Without ``mx``
    the maximal classes are computed, within the budget's lattice cap."""
    if group.is_cyclic():
        raise CyclicGroup("cyclic groups have infinite covering number")
    if mx is None:
        mx = maximal_classes_computed(group, budget.lattice_max_order)
    cls = group.conjugacy_classes()
    instance = build_instance(group, cls, mx)
    seed = covering_number_bounds(group, mx).chosen_subgroup_classes()
    wanted = {mx.by_label(lbl) for lbl in seed}
    initial = [c for c, k in enumerate(instance.column_class) if k in wanted]
    return solve(instance, budget, initial_cover=initial)


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
        symmetric=False,
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

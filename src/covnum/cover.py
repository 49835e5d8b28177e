"""Exact minimum set cover over conjugacy classes of maximal subgroups.

The instance is element-level: the universe is every element of the selected
element classes, one column per subgroup (every conjugate of each selected
class representative), coverage stored as int bitmasks. The solver is plain
branch and bound: greedy incumbent, a dual bound from a greedily grown set
of pairwise-independent elements (no two sharing a column), unit propagation
for elements with a single remaining column, and class-level symmetry
breaking for the first decision only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import ceil

from .errors import CovnumError, CyclicGroup, Infeasible, ParseError
from .greedy import covering_number_bounds
from .groups import ConjClassTable, PermGroup
from .subgroups import DEFAULT_LIMITS, Limits, MaxClassSet, algebra, maximal_classes_computed


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
    optimal: bool
    chosen: tuple[int, ...]
    nodes_explored: int
    budget_exhausted: bool

    @property
    def sigma(self) -> int:
        if not self.optimal:
            raise ValueError("result is not optimal; use (lower, upper)")
        return self.upper


@dataclass(frozen=True)
class SolveBudget:
    max_nodes: int = 5_000_000
    time_limit: float | None = None


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
        missing = (full & ~covered).bit_length() - 1
        x = universe[missing]
        raise Infeasible(
            f"element {alg.elems[x]} of class "
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
    chosen = []
    cov = 0
    while cov != full:
        best, best_gain = -1, 0
        for c, m in enumerate(masks):
            gain = (m & ~cov).bit_count()
            if gain > best_gain:
                best, best_gain = c, gain
        if best_gain == 0:
            break
        chosen.append(best)
        cov |= masks[best]
    return chosen


def solve(instance: CoverInstance, budget: SolveBudget = SolveBudget(),
          initial_cover=None) -> CoverResult:
    """Branch-and-bound minimum cover. Budget exhaustion degrades ``optimal``
    to False but the returned (lower, upper) bracket stays sound."""
    masks = list(instance.column_masks)
    full = instance.full_mask()
    U = instance.universe_size
    if U == 0:
        return CoverResult(0, 0, True, (), 0, False)

    elem_cols: list[list[int]] = [[] for _ in range(U)]
    for c, m in enumerate(masks):
        mm = m
        while mm:
            low = mm & -mm
            elem_cols[low.bit_length() - 1].append(c)
            mm ^= low
    rarity_order = sorted(range(U), key=lambda e: (len(elem_cols[e]), e))

    best = _greedy_cover(masks, full)
    if initial_cover is not None:
        cov = 0
        for c in initial_cover:
            cov |= masks[c]
        if cov == full and len(initial_cover) < len(best):
            best = list(initial_cover)
    best_size = len(best)

    def independent_bound(cov: int) -> int:
        blocked = 0  # bitmask over columns
        count = 0
        for e in rarity_order:
            if cov >> e & 1:
                continue
            cols = elem_cols[e]
            hit = False
            for c in cols:
                if blocked >> c & 1:
                    hit = True
                    break
            if hit:
                continue
            for c in cols:
                blocked |= 1 << c
            count += 1
        return count

    def ceil_bound(cov: int) -> int:
        rem = (full & ~cov).bit_count()
        if rem == 0:
            return 0
        biggest = max((m & ~cov).bit_count() for m in masks)
        return ceil(rem / biggest) if biggest else U + 1

    root_lower = max(independent_bound(0), ceil_bound(0), 1)

    nodes = 0
    start = time.monotonic()
    exhausted = False

    def out_of_budget() -> bool:
        if nodes >= budget.max_nodes:
            return True
        if budget.time_limit is not None and nodes % 256 == 0:
            return time.monotonic() - start > budget.time_limit
        return False

    def dfs(cov: int, banned: int, chosen: tuple[int, ...]) -> None:
        nonlocal best, best_size, nodes, exhausted
        nodes += 1
        if exhausted or out_of_budget():
            exhausted = True
            return
        # unit propagation: elements with one remaining column are forced
        while True:
            if cov == full:
                if len(chosen) < best_size:
                    best, best_size = list(chosen), len(chosen)
                return
            # the first element with at most one available column, else the
            # one with the fewest (stopping early at two)
            branch = None
            e = full & ~cov
            while e:
                low = e & -e
                e ^= low
                avail = [c for c in elem_cols[low.bit_length() - 1]
                         if not (banned >> c & 1) and masks[c] & ~cov]
                if branch is None or len(avail) < len(branch):
                    branch = avail
                    if len(avail) <= 2:
                        break
            if not branch:
                return  # some element can no longer be covered
            if len(branch) > 1:
                break
            if len(chosen) + 1 >= best_size:
                return
            chosen += (branch[0],)
            cov |= masks[branch[0]]
        lb = len(chosen) + max(independent_bound(cov), ceil_bound(cov))
        if lb >= best_size:
            return
        branch.sort(key=lambda c: (-(masks[c] & ~cov).bit_count(), c))
        extra_ban = 0
        for c in branch:
            if len(chosen) + 1 >= best_size:
                break
            dfs(cov | masks[c], banned | extra_ban, chosen + (c,))
            if exhausted:
                break
            extra_ban |= 1 << c

    if instance.symmetric and instance.class_labels:
        # Any cover uses some class first (in class order); conjugacy makes the
        # columns of that class interchangeable, so its first column can be
        # pinned to the least id. Sound only before other decisions exist.
        banned = 0
        nclasses = len(instance.class_labels)
        for k in range(nclasses):
            cols_k = instance.columns_of_class(k)
            if not cols_k:
                continue
            first = cols_k[0]
            if not exhausted:
                dfs(masks[first], banned, (first,))
            for c in cols_k:
                banned |= 1 << c
    else:
        dfs(0, 0, ())

    # a root dual bound meeting the incumbent proves optimality even if the
    # search itself was cut short
    optimal = not exhausted or root_lower >= best_size
    lower = best_size if optimal else min(root_lower, best_size)
    cov = 0
    for c in best:
        cov |= masks[c]
    if cov != full or len(best) != best_size:
        raise CovnumError(f"incumbent of size {len(best)} is not a cover of size {best_size}")
    if optimal != (lower == best_size):
        raise CovnumError(f"optimal={optimal} disagrees with bracket [{lower}, {best_size}]")
    return CoverResult(
        lower=lower,
        upper=best_size,
        optimal=optimal,
        chosen=tuple(best),
        nodes_explored=nodes,
        budget_exhausted=exhausted,
    )


def sigma_exact(group: PermGroup, budget: SolveBudget = SolveBudget(),
                limits: Limits = DEFAULT_LIMITS,
                mx: MaxClassSet | None = None) -> CoverResult:
    """Exact covering number via set cover over all nonidentity classes and
    all maximal subgroup classes (minimal covers can always be taken there).
    The search starts from the greedy cover as its incumbent."""
    if group.is_cyclic():
        raise CyclicGroup("cyclic groups have infinite covering number")
    if mx is None:
        mx = maximal_classes_computed(group, limits)
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
    for m in instance.column_masks:
        positions = []
        while m:
            low = m & -m
            positions.append(low.bit_length() - 1)
            m ^= low
        lines.append(" ".join(map(str, positions)))
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> CoverInstance:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("universe ") \
            or not lines[1].startswith("columns "):
        raise ParseError("expected 'universe N' and 'columns M' headers")
    universe = int(lines[0].split()[1])
    ncols = int(lines[1].split()[1])
    if len(lines) != 2 + ncols:
        raise ParseError(f"expected {ncols} column lines, found {len(lines) - 2}")
    masks = []
    for ln in lines[2:]:
        mask = 0
        for tok in ln.split():
            p = int(tok)
            if not 0 <= p < universe:
                raise ParseError(f"element {p} out of range")
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
    for e in range(instance.universe_size):
        covering = [f"x{c}" for c, m in enumerate(instance.column_masks) if m >> e & 1]
        lines.append(f" e{e}: " + " + ".join(covering) + " >= 1")
    lines.append("Binary")
    for x in cols:
        lines.append(f" {x}")
    lines.append("End")
    return "\n".join(lines) + "\n"

"""Subgroup-level structure for enumerable permutation groups.

Everything here works on element-id sets: the parent group is enumerated
once, each subgroup is carried as a frozenset of element indices, and the
expensive operations (lattice closure, conjugation orbits, intersections)
become set arithmetic. All orderings are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    BudgetExceeded,
    CovnumError,
    IndexTooLarge,
    IngestInvalid,
    NoSupplement,
    OutOfRange,
    ParseError,
)
from .groups import PermGroup, label_index, orbit
from .perms import Permutation, format_cycles, parse_permutation


@dataclass(frozen=True)
class Limits:
    """The subgroup-lattice budget; an overrun raises BudgetExceeded."""

    lattice_max_order: int = 5000


DEFAULT_LIMITS = Limits()
COSET_DEGREE_MAX = 20000  # largest coset action that coset_action builds


class _RightMultiple:
    """The map x -> x*g on element ids, one product per lookup."""

    __slots__ = ("elems", "index", "perm")

    def __init__(self, alg: "_Algebra", g: int):
        self.elems, self.index, self.perm = alg.elems, alg.index, alg.elems[g]

    def __getitem__(self, x: int) -> int:
        return self.index[(self.elems[x] * self.perm).images]


class _Algebra:
    """Element-id arithmetic for one enumerated group."""

    def __init__(self, group: PermGroup):
        self.generators = group.generators
        self.elems = group.elements()
        self.index = group.element_index
        self.n = len(self.elems)
        self.conjugation_maps = group.conjugation_maps
        self._columns: dict[int, list[int]] = {}

    @cached_property
    def inv(self) -> list[int]:
        return [self.index[p.inverse().images] for p in self.elems]

    def mult(self, a: int, b: int) -> int:
        return self.index[(self.elems[a] * self.elems[b]).images]

    def conjugate(self, x: int, c: int) -> int:
        """x^c = c^-1 * x * c."""
        return self.mult(self.mult(self.inv[c], x), c)

    def column(self, g: int):
        """The right-multiplication map x -> x*g: a cached id list up to
        2048 elements, where lattice work reuses it across many closures;
        a per-lookup map above that, where n ints per generator cost more
        to build than one closure saves."""
        if self.n > 2048:
            return _RightMultiple(self, g)
        col = self._columns.get(g)
        if col is None:
            pg = self.elems[g]
            col = [self.index[(p * pg).images] for p in self.elems]
            self._columns[g] = col
        return col

    @cached_property
    def gen_ids(self) -> list[int]:
        return sorted({self.index[g.images] for g in self.generators} - {0})

    def closure(self, seed_ids, bail_above: int | None = None) -> frozenset[int] | None:
        """Subgroup generated by the given element ids.

        With bail_above set, returns None as soon as the closure exceeds that
        size (then the subgroup can only be the whole group)."""
        cols = [self.column(g) for g in sorted(set(seed_ids) - {0})]
        out = {0}
        frontier = [0]
        while frontier:
            new = []
            for x in frontier:
                for col in cols:
                    y = col[x]
                    if y not in out:
                        out.add(y)
                        new.append(y)
            if bail_above is not None and len(out) > bail_above:
                return None
            frontier = new
        return frozenset(out)

    def conjugation_closure(self, seed_ids, conjugator_ids) -> frozenset[int]:
        """Smallest subgroup containing seed_ids that the conjugator_ids
        normalize.

        A subgroup is normalized by c once c conjugates each of its
        generators into it, so each round conjugates only the generators
        added in the round before and re-closes from generators alone."""
        gens = set(seed_ids) - {0}
        current = self.closure(gens)
        fresh = gens
        while fresh:
            fresh = {y for x in fresh for c in conjugator_ids
                     if (y := self.conjugate(x, c)) not in current}
            if fresh:
                gens |= fresh
                current = self.closure(gens)
        return current

    def normal_closure(self, seed_ids) -> frozenset[int]:
        return self.conjugation_closure(seed_ids, self.gen_ids)

    def generating_ids(self, ids: frozenset[int]) -> list[int]:
        """A small deterministic generating set for the subgroup ``ids``."""
        gens: list[int] = []
        have: frozenset[int] = frozenset({0})
        for x in sorted(ids):
            if x not in have:
                gens.append(x)
                have = self.closure(gens)
                if len(have) == len(ids):
                    break
        return gens

    def conjugate_set(self, ids: frozenset[int], gen_index: int) -> frozenset[int]:
        cmap = self.conjugation_maps[gen_index]
        return frozenset(cmap[x] for x in ids)

    def set_orbit(self, ids: frozenset[int]) -> list[frozenset[int]]:
        """Conjugation orbit of a subgroup under the whole group."""
        gens = range(len(self.conjugation_maps))
        return sorted(orbit(ids, lambda s: [self.conjugate_set(s, gi) for gi in gens]),
                      key=sorted)


def algebra(group: PermGroup) -> _Algebra:
    """The group's element-id arithmetic, built once and kept on the group."""
    alg = getattr(group, "_algebra", None)
    if alg is None:
        alg = group._algebra = _Algebra(group)
    return alg


def smallest_prime_factor(n: int) -> int:
    """The least prime dividing n >= 2 (n itself when n is prime)."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def prime_power(q: int) -> tuple[int, int]:
    """(p, d) with q = p^d and p prime; OutOfRange when there is none."""
    if q >= 2:
        p, d, m = smallest_prime_factor(q), 0, q
        while m % p == 0:
            m //= p
            d += 1
        if m == 1:
            return p, d
    raise OutOfRange(f"{q} is not a prime power")


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of an enumerated parent, keyed by its element-id set."""

    parent: PermGroup
    generators: tuple[Permutation, ...]
    order: int
    elements: frozenset[int]

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def is_normal(self) -> bool:
        alg = algebra(self.parent)
        return all(alg.conjugate_set(self.elements, gi) == self.elements
                   for gi in range(len(self.parent.generators)))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, index={self.index})"


def subgroup_from_ids(group: PermGroup, ids: frozenset[int]) -> Subgroup:
    alg = algebra(group)
    gen_ids = alg.generating_ids(ids) or [0]
    return Subgroup(
        parent=group,
        generators=tuple(alg.elems[i] for i in gen_ids),
        order=len(ids),
        elements=ids,
    )


def subgroup_from_gens(group: PermGroup, gens) -> Subgroup:
    alg = algebra(group)
    seed = []
    for g in gens:
        if g.images not in alg.index:
            raise IngestInvalid(f"generator {format_cycles(g)} is not in the parent group")
        seed.append(alg.index[g.images])
    ids = alg.closure(seed)
    return Subgroup(parent=group, generators=tuple(gens), order=len(ids), elements=ids)


# ---------------------------------------------------------------------------
# Subgroup lattice by breadth-first join closure
# ---------------------------------------------------------------------------

def _atoms(alg: _Algebra) -> list[tuple[frozenset[int], int]]:
    """All cyclic subgroups of prime-power order, with one generator id each."""
    seen: dict[frozenset[int], int] = {}
    for x in range(1, alg.n):
        p = alg.elems[x]
        k = p.order
        try:
            prime_power(k)
        except OutOfRange:
            continue
        ids = frozenset(alg.index[(p ** e).images] for e in range(k))
        if ids not in seen:
            seen[ids] = x
    return sorted(seen.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))


def _lattice_sets(group: PermGroup, limits: Limits) -> dict[frozenset[int], int]:
    """All subgroups as element-id sets, mapped to a conjugacy-class id.

    Breadth-first join closure: start from the cyclic prime-power subgroups,
    join class representatives with every atom, and close each new subgroup
    under conjugation. Conjugation-closure makes rep-only joins complete.
    """
    if group.order > limits.lattice_max_order:
        raise BudgetExceeded(
            f"lattice budget: order {group.order} > {limits.lattice_max_order}")
    alg = algebra(group)
    atoms = _atoms(alg)
    sets: dict[frozenset[int], int] = {}
    reps: list[tuple[frozenset[int], list[int]]] = []

    def admit(ids: frozenset[int], gen_ids: list[int]) -> None:
        if ids in sets:
            return
        class_id = len(reps)
        orbit = alg.set_orbit(ids)
        for member in orbit:
            sets[member] = class_id
        reps.append((min(orbit, key=sorted), gen_ids))

    admit(frozenset({0}), [])
    for ids, gen in atoms:
        admit(ids, [gen])
    proper_cap = alg.n // smallest_prime_factor(alg.n) if alg.n > 1 else 1
    cursor = 0
    while cursor < len(reps):
        rep_ids, rep_gens = reps[cursor]
        cursor += 1
        if len(rep_ids) == alg.n:
            continue
        for atom_ids, atom_gen in atoms:
            if atom_ids <= rep_ids:
                continue
            joined = alg.closure(rep_gens + [atom_gen], bail_above=proper_cap)
            if joined is None or joined in sets:
                continue
            admit(joined, alg.generating_ids(joined))
    admit(frozenset(range(alg.n)), alg.gen_ids)
    return sets


def all_subgroups(group: PermGroup, limits: Limits = DEFAULT_LIMITS) -> list[Subgroup]:
    """Every subgroup of the group, including the trivial and full ones."""
    sets = _lattice_sets(group, limits)
    return [subgroup_from_ids(group, ids) for ids in sorted(sets, key=lambda s: (len(s), sorted(s)))]


# ---------------------------------------------------------------------------
# Maximal subgroup classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxClass:
    """One conjugacy class of maximal subgroups."""

    rep: Subgroup
    class_length: int
    index: int
    self_normalizing: bool
    label: str
    members: tuple[frozenset[int], ...] = field(repr=False)
    verification: str = "lattice"  # how maximality was established


@dataclass(frozen=True)
class MaxClassSet:
    classes: tuple[MaxClass, ...]
    provenance: str  # "computed" | "ingested"

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def by_label(self, label: str) -> int:
        return label_index([c.label for c in self.classes], label, "maximal class")

    def subgroup_count(self) -> int:
        return sum(c.class_length for c in self.classes)


def _package_max_classes(group: PermGroup, orbits: list[list[frozenset[int]]],
                         provenance: str,
                         notes: dict[frozenset[int], str] | None = None) -> MaxClassSet:
    order = group.order
    keyed = []
    for orbit in orbits:
        rep_ids = min(orbit, key=sorted)
        keyed.append((order // len(rep_ids), len(orbit), sorted(rep_ids), rep_ids, orbit))
    keyed.sort(key=lambda t: (t[0], t[1], t[2]))
    classes = []
    for pos, (index, length, _, rep_ids, orbit) in enumerate(keyed, start=1):
        classes.append(MaxClass(
            rep=subgroup_from_ids(group, rep_ids),
            class_length=length,
            index=index,
            self_normalizing=(length == index),
            label=f"M{pos}",
            members=tuple(sorted(orbit, key=sorted)),
            verification="lattice" if notes is None else notes[rep_ids],
        ))
    return MaxClassSet(classes=tuple(classes), provenance=provenance)


def maximal_classes_computed(group: PermGroup,
                             limits: Limits = DEFAULT_LIMITS) -> MaxClassSet:
    """Maximal subgroup classes read off the full subgroup lattice."""
    sets = _lattice_sets(group, limits)
    n = group.order
    by_class: dict[int, list[frozenset[int]]] = {}
    for ids, cid in sets.items():
        by_class.setdefault(cid, []).append(ids)
    all_sets = list(sets)
    orbits = []
    for orbit in by_class.values():
        if len(orbit[0]) < n and _is_maximal_in(orbit[0], all_sets, n):
            orbits.append(orbit)
    return _package_max_classes(group, orbits, "computed")


def _is_maximal_in(h: frozenset[int], all_sets: list[frozenset[int]], order: int) -> bool:
    size = len(h)
    if size == order:
        return False
    for s in all_sets:
        if size < len(s) < order and len(s) % size == 0 and h < s:
            return False
    return True


def maximal_classes_from_file(group: PermGroup, text: str) -> MaxClassSet:
    """Ingest maximal subgroup classes and verify them.

    Each listed subgroup is checked to be a genuine subgroup, its index and
    class length are recomputed, and maximality is verified by the local
    check: adjoining any coset representative must generate the whole group.
    """
    alg = algebra(group)
    entries = _parse_maximal_file(text, group.degree)
    orbits = []
    notes: dict[frozenset[int], str] = {}
    seen_sets: set[frozenset[int]] = set()
    for claim_index, claim_length, gens in entries:
        sub = subgroup_from_gens(group, gens)
        if sub.index != claim_index:
            raise IngestInvalid(
                f"declared index {claim_index}, computed {sub.index}")
        orbit = alg.set_orbit(sub.elements)
        if len(orbit) != claim_length:
            raise IngestInvalid(
                f"declared class length {claim_length}, computed {len(orbit)}")
        if sub.elements in seen_sets:
            raise IngestInvalid("two listed subgroups are conjugate")
        seen_sets.update(orbit)
        note = _verify_maximal(group, sub)
        orbits.append(orbit)
        notes[min(orbit, key=sorted)] = note
    return _package_max_classes(group, orbits, "ingested", notes)


def _coset_decomposition(group: PermGroup, sub: Subgroup) -> tuple[list[int], dict[int, int]]:
    """Right cosets of sub: representative ids (identity first) and the map
    element id -> coset number."""
    alg = algebra(group)
    rep_ids = [0]
    coset_of: dict[int, int] = {x: 0 for x in sub.elements}
    frontier = [0]
    while frontier:
        new = []
        for r in frontier:
            for g in alg.gen_ids:
                x = alg.mult(r, g)
                if x not in coset_of:
                    c = len(rep_ids)
                    rep_ids.append(x)
                    for h in sub.elements:
                        coset_of[alg.mult(h, x)] = c
                    new.append(x)
        frontier = new
    if len(rep_ids) != sub.index:
        raise CovnumError(f"found {len(rep_ids)} cosets, index is {sub.index}")
    return rep_ids, coset_of


def _verify_maximal(group: PermGroup, sub: Subgroup) -> str:
    """Local maximality check: adjoining any coset representative must
    generate the whole group. Since <H, r> = <H, h r h'> for h, h' in H, one
    representative per double coset H r H decides all of its cosets
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005).
    Returns a note saying how many representatives were decided."""
    if sub.index == 1:
        raise IngestInvalid("not maximal: the listed subgroup is the whole group")
    alg = algebra(group)
    rep_ids, coset_of = _coset_decomposition(group, sub)
    decided = {0}
    for c, r in enumerate(rep_ids):
        if c in decided:
            continue
        decided.update(coset_of[alg.mult(r, h)] for h in sub.elements)
        rep = alg.elems[r]
        probe = PermGroup(group.degree, list(sub.generators) + [rep])
        if probe.order != group.order:
            raise IngestInvalid(
                f"not maximal: adjoining {format_cycles(rep)} gives a proper "
                f"subgroup of order {probe.order}")
    return f"exhaustive({len(rep_ids) - 1})"


def _parse_maximal_file(text: str, degree: int) -> list[tuple[int, int, list[Permutation]]]:
    entries: list[tuple[int | None, int | None, list[Permutation]]] = []
    current: dict | None = None

    def flush() -> None:
        if current is None:
            return
        if current["index"] is None or current["length"] is None:
            raise ParseError("class section missing index or length", current["line"])
        if not current["gens"]:
            raise ParseError("class section has no generators", current["line"])
        entries.append((current["index"], current["length"], current["gens"]))

    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            flush()
            if not line.startswith("[class"):
                raise ParseError(f"unexpected section {line!r}", lineno)
            current = {"index": None, "length": None, "gens": [], "line": lineno}
        elif current is None:
            raise ParseError("content before first [class] section", lineno)
        elif line.startswith(("index ", "length ")):
            key, value = line.split(None, 1)
            try:
                current[key] = int(value)
            except ValueError:
                raise ParseError(f"bad {key} {value!r}", lineno) from None
        else:
            try:
                current["gens"].append(parse_permutation(line, degree))
            except ParseError as exc:
                raise ParseError(str(exc), lineno) from None
    flush()
    if not entries:
        raise ParseError("no [class] sections found")
    return entries


def format_maximal_file(mx: MaxClassSet) -> str:
    lines = []
    for i, cls in enumerate(mx.classes, start=1):
        lines.append(f"[class {i}]")
        lines.append(f"index {cls.index}")
        lines.append(f"length {cls.class_length}")
        lines += [format_cycles(g) for g in cls.rep.generators]
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Cores, coset actions, normal structure
# ---------------------------------------------------------------------------

def normal_core(group: PermGroup, sub: Subgroup) -> Subgroup:
    """Largest normal subgroup of the group inside sub: the intersection of
    all conjugates."""
    alg = algebra(group)
    core = set(sub.elements)
    for member in alg.set_orbit(sub.elements):
        core &= member
        if len(core) == 1:
            break
    return subgroup_from_ids(group, frozenset(core))


def coset_action(group: PermGroup, sub: Subgroup) -> tuple[PermGroup, Subgroup]:
    """Action on right cosets of sub; returns (image group, kernel). The
    kernel is the core of sub."""
    index = sub.index
    if index > COSET_DEGREE_MAX:
        raise IndexTooLarge(f"index {index} exceeds {COSET_DEGREE_MAX}")
    alg = algebra(group)
    rep_ids, coset_of = _coset_decomposition(group, sub)
    image_gens = []
    for g in group.generators:
        gid = alg.index[g.images]
        image_gens.append(Permutation(
            tuple(coset_of[alg.mult(r, gid)] for r in rep_ids)))
    image = PermGroup(index, image_gens,
                      name=f"{group.name or 'G'}/cosets({sub.order})")
    kernel = normal_core(group, sub)
    if image.order * kernel.order != group.order:
        raise CovnumError(f"coset image order {image.order} times kernel order "
                          f"{kernel.order} is not {group.order}")
    return image, kernel


def minimal_normal_subgroups(group: PermGroup) -> list[Subgroup]:
    """All minimal normal subgroups, via normal closures of class
    representatives (no lattice needed)."""
    if group.order == 1:
        return []
    alg = algebra(group)
    closures: dict[frozenset[int], None] = {}
    for cls in group.conjugacy_classes():
        ids = alg.normal_closure([alg.index[cls.rep.images]])
        closures.setdefault(ids, None)
    minimal = []
    for ids in closures:
        if not any(other < ids for other in closures):
            minimal.append(ids)
    minimal.sort(key=lambda s: (len(s), sorted(s)))
    return [subgroup_from_ids(group, ids) for ids in minimal]


def derived_subgroup_ids(group: PermGroup, ids: frozenset[int] | None = None) -> frozenset[int]:
    """Derived subgroup of the subgroup with the given ids (whole group if None):
    the commutators of its generators, closed under conjugation by them."""
    alg = algebra(group)
    if ids is None:
        base, gens = frozenset(range(alg.n)), alg.gen_ids
    else:
        base, gens = ids, alg.generating_ids(ids)
    gens = gens or [0]
    comms = [alg.mult(alg.mult(alg.inv[a], alg.inv[b]), alg.mult(a, b))
             for a in gens for b in gens]
    current = alg.conjugation_closure(comms, gens)
    if not current <= base:
        raise CovnumError("derived subgroup escaped its subgroup")
    return current


def is_solvable(group: PermGroup) -> bool:
    """True iff the derived series reaches the trivial group."""
    alg = algebra(group)
    current = frozenset(range(alg.n))
    while True:
        nxt = derived_subgroup_ids(group, current if len(current) < alg.n else None)
        if nxt == current:
            return len(current) == 1
        if len(nxt) == 1:
            return True
        current = nxt


def is_primitive_monolithic(group: PermGroup, mx: MaxClassSet):
    """(primitive, monolithic, min primitivity degree or None)."""
    degrees = []
    for cls in mx.classes:
        core = normal_core(group, cls.rep)
        if core.order == 1:
            degrees.append(cls.index)
    primitive = bool(degrees)
    monolithic = len(minimal_normal_subgroups(group)) == 1
    return primitive, monolithic, (min(degrees) if degrees else None)


def min_supplement_index(group: PermGroup, normal: Subgroup, mx: MaxClassSet) -> int:
    """Minimal index of a maximal subgroup H with H·N = G."""
    best = None
    n = group.order
    for cls in mx.classes:
        h = cls.rep.elements
        inter = len(h & normal.elements)
        if len(h) * normal.order == n * inter:  # |H||N|/|H∩N| == |G|
            if best is None or cls.index < best:
                best = cls.index
    if best is None:
        raise NoSupplement("every maximal subgroup contains the normal subgroup")
    return best

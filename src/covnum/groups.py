"""Permutation groups with a deterministic stabilizer chain.

The chain gives exact order and membership for any group generated here.
Base points are always chosen as the smallest currently-moved point, and
orbits are explored smallest-point-first, so element enumeration, class
tables and everything downstream are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import CapExceeded, CovnumError, DegreeMismatch, ParseError, Unknown
from .perms import Permutation, format_cycles, parse_permutation

ENUM_CAP = 10**6  # largest group whose elements are ever listed


def orbit(start, step) -> dict:
    """Breadth-first orbit of ``start``, where ``step(x)`` yields the points
    one move away from x. The keys of the returned dict are the orbit in
    discovery order (the values are unused)."""
    seen = {start: None}
    queue = [start]
    for x in queue:
        for y in step(x):
            if y not in seen:
                seen[y] = None
                queue.append(y)
    return seen


def label_index(labels: list[str], label: str, kind: str) -> int:
    """Position of ``label`` in ``labels``; Unknown names the known labels."""
    try:
        return labels.index(label)
    except ValueError:
        raise Unknown(f"no {kind} {label!r} (known: {', '.join(labels)})") from None


class _ChainLevel:
    """One stabilizer-chain level: a base point, the strong generators that
    fix all earlier base points, and a transversal of the base orbit."""

    __slots__ = ("base", "degree", "gens", "transversal")

    def __init__(self, base: int, degree: int):
        self.base = base
        self.degree = degree
        self.gens: list[Permutation] = []
        self.transversal: dict[int, Permutation] = {}
        self.rebuild_orbit()

    def rebuild_orbit(self) -> None:
        self.transversal = {self.base: Permutation.identity(self.degree)}
        frontier = [self.base]
        while frontier:
            new = []
            for point in frontier:
                u = self.transversal[point]
                for g in self.gens:
                    image = g(point)
                    if image not in self.transversal:
                        self.transversal[image] = u * g
                        new.append(image)
            frontier = sorted(new)


def _sift(levels: list[_ChainLevel], g: Permutation, start: int = 0):
    """Strip g through levels[start:]; return (residue, stop_level).

    stop_level == len(levels) means g passed every transversal; the residue
    is then the identity exactly when g is a member.
    """
    for i in range(start, len(levels)):
        level = levels[i]
        u = level.transversal.get(g(level.base))
        if u is None:
            return g, i
        g = g * u.inverse()
    return g, len(levels)


def _schreier_sims(degree: int, generators: list[Permutation]) -> list[_ChainLevel]:
    gens = [g for g in generators if not g.is_identity()]
    if not gens:
        return []
    levels = [_ChainLevel(min(min(g.moved()) for g in gens), degree)]
    levels[0].gens = list(gens)
    levels[0].rebuild_orbit()
    dirty = {0}
    while dirty:
        i = max(dirty)
        level = levels[i]
        level.rebuild_orbit()
        clean = True
        for point in sorted(level.transversal):
            u = level.transversal[point]
            for g in list(level.gens):
                schreier = u * g * level.transversal[g(point)].inverse()
                if schreier.is_identity():
                    continue
                residue, j = _sift(levels, schreier, i + 1)
                if residue.is_identity():
                    continue
                clean = False
                if j == len(levels):
                    levels.append(_ChainLevel(min(residue.moved()), degree))
                for k in range(i + 1, j + 1):
                    levels[k].gens.append(residue)
                    levels[k].rebuild_orbit()
                dirty.update(range(j + 1))
        if clean:
            dirty.discard(i)
    return levels


class PermGroup:
    """A finite permutation group given by generators, with exact order and
    membership answered from its stabilizer chain."""

    def __init__(self, degree: int, generators, name: str | None = None):
        generators = list(generators)
        if not generators:
            generators = [Permutation.identity(degree)]
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch(f"generator degree {g.degree} != {degree}")
        self.degree = degree
        self.generators = tuple(generators)
        self.name = name
        self._levels = _schreier_sims(degree, generators)

    @cached_property
    def order(self) -> int:
        n = 1
        for level in self._levels:
            n *= len(level.transversal)
        return n

    def __contains__(self, g: Permutation) -> bool:
        if not isinstance(g, Permutation) or g.degree != self.degree:
            return False
        residue, stop = _sift(self._levels, g)
        return stop == len(self._levels) and residue.is_identity()

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def elements(self) -> list[Permutation]:
        """All elements, identity first, in a deterministic closure order."""
        return self._element_list

    @cached_property
    def _element_list(self) -> list[Permutation]:
        if self.order > ENUM_CAP:
            raise CapExceeded(f"group order {self.order} exceeds cap {ENUM_CAP}")
        out = list(orbit(self.identity(), lambda x: [x * g for g in self.generators]))
        if len(out) != self.order:
            raise CovnumError(f"enumerated {len(out)} elements, chain order {self.order}")
        return out

    @cached_property
    def element_index(self) -> dict[tuple[int, ...], int]:
        return {p.images: i for i, p in enumerate(self._element_list)}

    @cached_property
    def conjugation_maps(self) -> list[list[int]]:
        """For each generator g, the element-id map x -> g^-1 x g."""
        index = self.element_index
        return [[index[p.conjugated_by(g).images] for p in self._element_list]
                for g in self.generators]

    def is_cyclic(self) -> bool:
        if self.order == 1:
            return True
        return any(p.order == self.order for p in self.elements())

    def is_abelian(self) -> bool:
        return all(a * b == b * a for a in self.generators for b in self.generators)

    def conjugacy_classes(self) -> "ConjClassTable":
        return self._classes_and_assignment[0]

    def class_assignment(self) -> list[int]:
        """Class index per element id (identity maps to -1)."""
        return self._classes_and_assignment[1]

    @cached_property
    def _classes_and_assignment(self) -> tuple["ConjClassTable", list[int]]:
        return _conjugacy_classes(self)

    def __repr__(self) -> str:
        label = self.name or f"degree {self.degree}"
        return f"PermGroup({label}, order={self.order})"


@dataclass(frozen=True)
class ConjClass:
    rep: Permutation
    size: int
    element_order: int
    label: str


@dataclass(frozen=True)
class ConjClassTable:
    """Nonidentity conjugacy classes, sorted by descending (order, size)."""

    classes: tuple[ConjClass, ...]
    total: int

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def by_label(self, label: str) -> int:
        return label_index([c.label for c in self.classes], label, "element class")


def class_labels(pairs: list[tuple[int, int]]) -> list[str]:
    """Labels ``cl_<order>``, with a ``,j`` suffix only when several classes
    share the element order (the usual table convention)."""
    counts: dict[int, int] = {}
    for order, _ in pairs:
        counts[order] = counts.get(order, 0) + 1
    seen: dict[int, int] = {}
    labels = []
    for order, _ in pairs:
        seen[order] = seen.get(order, 0) + 1
        if counts[order] == 1:
            labels.append(f"cl_{order}")
        else:
            labels.append(f"cl_{order},{seen[order]}")
    return labels


def _conjugacy_classes(group: PermGroup) -> tuple[ConjClassTable, list[int]]:
    elems = group.elements()
    maps = group.conjugation_maps
    n = len(elems)
    assigned = [False] * n
    assigned[0] = True  # identity excluded
    raw: list[tuple[Permutation, int, int, dict[int, None]]] = []
    for i in range(1, n):
        if assigned[i]:
            continue
        cls = orbit(i, lambda x: [m[x] for m in maps])
        for j in cls:
            assigned[j] = True
        rep = elems[min(cls)]
        raw.append((rep, len(cls), rep.order, cls))
    raw.sort(key=lambda t: (-t[2], -t[1], t[0].images))
    labels = class_labels([(order, size) for _, size, order, _ in raw])
    classes = tuple(
        ConjClass(rep=rep, size=size, element_order=order, label=label)
        for (rep, size, order, _), label in zip(raw, labels)
    )
    assignment = [-1] * n
    for pos, (_, _, _, cls) in enumerate(raw):
        for j in cls:
            assignment[j] = pos
    total = sum(c.size for c in classes)
    if total != group.order - 1:
        raise CovnumError(f"class sizes sum to {total}, expected {group.order - 1}")
    return ConjClassTable(classes=classes, total=total), assignment


def parse_group_file(text: str, name: str | None = None) -> PermGroup:
    """Parse the group file format: ``degree n`` then one generator per line
    in 1-based cycle notation. Blank lines and ``#`` comments are ignored."""
    degree = None
    gens = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "degree":
                raise ParseError("expected header 'degree <n>'", lineno)
            try:
                degree = int(parts[1])
            except ValueError:
                raise ParseError(f"bad degree {parts[1]!r}", lineno) from None
            if degree < 1:
                raise ParseError("degree must be positive", lineno)
            continue
        try:
            gens.append(parse_permutation(line, degree))
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from None
    if degree is None:
        raise ParseError("missing 'degree <n>' header")
    if not gens:
        gens = [Permutation.identity(degree)]
    return PermGroup(degree, gens, name=name)


def format_group_file(group: PermGroup) -> str:
    lines = [f"degree {group.degree}"]
    lines += [format_cycles(g) for g in group.generators]
    return "\n".join(lines) + "\n"

"""Permutation groups with a deterministic stabilizer chain, and their
element ids.

The chain gives exact order and membership for any group generated here.
It works on image tuples through ``perms.take`` and keeps only the inverse
of each transversal element. Base points are always chosen as the smallest
currently-moved point, and orbits are explored smallest-point-first, so
element enumeration, class tables and everything downstream are
reproducible run to run. A group's Enumeration numbers its elements and
owns everything done on those numbers: the Schreier tree, the id columns,
the conjugation maps, and the joins and closures that the subgroup and
cover modules build on.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .errors import CapExceeded, CovnumError, DegreeMismatch, ParseError, Unknown
from .perms import Permutation, _inverse, format_cycles, parse_permutation, take

ENUM_CAP = 10**6  # largest group whose elements are ever listed


def orbit(start, step) -> dict:
    """Breadth-first orbit of ``start``, where ``step(x)`` lists the points
    one move away from x. The keys of the returned dict are the orbit in
    discovery order; the values form a Schreier tree: each point maps to
    ``(x, k)`` when it was first reached as ``step(x)[k]``, and ``start``
    maps to None."""
    seen = {start: None}
    queue = [start]
    for x in queue:
        for k, y in enumerate(step(x)):
            if y not in seen:
                seen[y] = (x, k)
                queue.append(y)
    return seen


def label_index(labels: list[str], label: str, kind: str) -> int:
    """Position of ``label`` in ``labels``; Unknown names the known labels."""
    try:
        return labels.index(label)
    except ValueError:
        raise Unknown(f"no {kind} {label!r} (known: {', '.join(labels)})") from None


def _id_array(n: int, ids) -> array:
    """Element ids of a group of order n, two bytes each up to 65536
    elements and four above."""
    return array("H" if n <= 65536 else "I", ids)


class Enumeration:
    """A group's elements as element ids, and the arithmetic on those ids.

    The elements are the breadth-first orbit of the identity under right
    multiplication by the generators: element x > 0 was first reached as
    _parent[x] * generator _letter[x], and gen_cols[k][x] is the id of
    x * generator k. column(g) is the map x -> x*g for any g, composed from
    the generator columns along that Schreier tree and cached; cosets, join
    and closure grow subgroups from columns, and the conjugation action is
    read off the generator columns down the same tree. Only this class reads
    the tree.
    It keeps the generators but no reference to their group."""

    def __init__(self, degree: int, generators):
        self.generators = tuple(generators)
        gens = [g.images for g in self.generators]
        elems = [Permutation.identity(degree)]
        index = {elems[0].images: 0}
        parent, letter = [0], [0]
        cols: list[list[int]] = [[] for _ in gens]
        for x, p in enumerate(elems):  # grows as new elements are met
            times = take(p.images)  # times(g) is the image tuple of p * g
            for k, g in enumerate(gens):
                images = times(g)
                y = index.get(images)
                if y is None:
                    y = len(elems)
                    index[images] = y
                    elems.append(Permutation._trusted(images))
                    parent.append(x)
                    letter.append(k)
                cols[k].append(y)
        self.elems = elems
        self.index = index
        self.n = len(elems)
        self.gen_cols = cols
        self._parent, self._letter = parent, letter
        self._columns = {0: _id_array(self.n, range(self.n))}
        for g, col in zip(gens, cols):
            self._columns.setdefault(index[g], col)

    @cached_property
    def conjugation_maps(self) -> list[list[int]]:
        """For each generator g, the element-id map x -> g^-1 x g: g's column
        read at left[x], the id of g^-1 x. left is read down the Schreier
        tree: x is p*s for its tree parent p and one generator s, so
        g^-1 x = (g^-1 p)*s and left[x] = gen_cols[s][left[p]], starting
        from the id of g^-1 at the identity."""
        parent, letter, cols = self._parent, self._letter, self.gen_cols
        maps = []
        for g, col in zip(self.generators, cols):
            left = [self.index[g.inverse().images]]
            for x in range(1, self.n):
                left.append(cols[letter[x]][left[parent[x]]])
            maps.append(list(take(left)(col)))
        return maps

    @cached_property
    def inv_gen_cols(self) -> list[list[int] | array]:
        """The column of each generator's inverse."""
        return [self.column(self.index[g.inverse().images]) for g in self.generators]

    @cached_property
    def gen_ids(self) -> list[int]:
        return sorted({self.index[g.images] for g in self.generators} - {0})

    def word(self, h: int) -> list[int]:
        """The generators whose product is h, first factor first."""
        word = []
        while h:
            word.append(self._letter[h])
            h = self._parent[h]
        return word[::-1]

    def column(self, g: int) -> list[int] | array:
        """The right-multiplication map x -> x*g, composed from generator
        columns along the Schreier tree.

        Each g > 0 is p*s for its tree parent p and one generator s, so
        x*g = (x*p)*s and column(g) is generator s's column read at every
        entry of column(p): one take of n entries and no permutation
        product. The walk goes up to the nearest cached ancestor and
        composes back down in temporary tuples; only column(g) is cached,
        as a compact id array, which holds far less than a tuple of n ints.
        Caching every column on the path as well held more than twice the
        columns for no measurable gain in time."""
        columns = self._columns
        col = columns.get(g)
        if col is None:
            letters = []
            x = g
            while x not in columns:
                letters.append(self._letter[x])
                x = self._parent[x]
            col = columns[x]
            for s in reversed(letters):
                col = take(col)(self.gen_cols[s])
            col = columns[g] = _id_array(self.n, col)
        return col

    def cosets(self, base: list[int], gen_ids,
               bail_above: int | None = None) -> list[list[int]] | None:
        """The right cosets of the subgroup H listed in ``base`` that make up
        the subgroup K generated by ``gen_ids``; these must generate K on
        their own, so they include generators of H.

        Dimino's coset extension (Butler, Fundamental Algorithms for
        Permutation Groups, LNCS 559, 1991): K is the union of the cosets
        reached from H by right multiplication with its generators, and the
        image of a coset C under the generator column col is the coset
        [col[x] for x in C], which is new exactly when col[C[0]] is. So each
        element of K costs one lookup, done for a whole coset by one take
        built at the coset's first new image, and only one element per coset
        and generator is tested against the set. Each coset keeps the order
        of ``base``: when ``base`` starts with the identity, every coset
        starts with its representative, and the representatives come in
        breadth-first order.
        With bail_above set, returns None as soon as K has more elements
        than that."""
        cap = self.n if bail_above is None else bail_above
        if len(base) > cap:
            return None
        cols = [self.column(g) for g in gen_ids]
        seen = set(base)
        out = [base]
        for coset in out:  # grows as new cosets are met
            image_of = None  # built at the coset's first new image
            for col in cols:
                if col[coset[0]] not in seen:
                    if image_of is None:
                        image_of = take(coset)
                    image = image_of(col)
                    seen.update(image)
                    out.append(image)
                    if len(seen) > cap:
                        return None
        return out

    def join(self, ids, gen_ids, bail_above: int | None = None) -> frozenset[int] | None:
        """The subgroup generated by the subgroup ``ids`` and ``gen_ids``, as
        the union of its cosets; gen_ids must generate it on their own.
        With bail_above set, returns None once it exceeds that size."""
        out = self.cosets(list(ids), gen_ids, bail_above)
        return None if out is None else frozenset(chain.from_iterable(out))

    def _span(self, seed_ids) -> tuple[list[int], frozenset[int]]:
        """The subgroup generated by the given element ids, and the ids it
        was grown from: in increasing order, each id outside the subgroup
        of those before it is joined onto that subgroup."""
        gens: list[int] = []
        have: frozenset[int] = frozenset({0})
        for x in sorted(set(seed_ids)):
            if x not in have:
                gens.append(x)
                have = self.join(have, gens)
        return gens, have

    def closure(self, seed_ids) -> frozenset[int]:
        """Subgroup generated by the given element ids."""
        return self._span(seed_ids)[1]

    def normal_closure(self, seed_ids) -> frozenset[int]:
        """Smallest normal subgroup containing seed_ids.

        A subgroup is normal once each generator of the group conjugates
        each of its generators into it, so each round conjugates only the
        generators added in the round before and joins them onto the
        subgroup."""
        gens = set(seed_ids) - {0}
        current = self.closure(gens)
        fresh = gens
        while fresh:
            fresh = {y for x in fresh for cmap in self.conjugation_maps
                     if (y := cmap[x]) not in current}
            if fresh:
                gens |= fresh
                current = self.join(current, gens)
        return current

    def generating_ids(self, ids: frozenset[int]) -> list[int]:
        """A small deterministic generating set for the subgroup ``ids``."""
        return self._span(ids)[0]

    def conjugate_set(self, ids: frozenset[int], gen_index: int) -> frozenset[int]:
        return frozenset(take(ids)(self.conjugation_maps[gen_index]))

    def conjugation_orbit(self, ids: frozenset[int]) -> dict:
        """Conjugation orbit of a subgroup under the whole group, as the
        Schreier tree of orbit: move k conjugates by generator k."""
        gens = range(len(self.conjugation_maps))
        return orbit(ids, lambda s: [self.conjugate_set(s, gi) for gi in gens])


class _ChainLevel:
    """One stabilizer-chain level: a base point, the strong generators that
    fix all earlier base points, and the base orbit's inverse transversal.

    Everything is an image tuple. Each strong generator is kept with its
    inverse, and each orbit point p with u_p^-1 only, where u_p is the
    transversal element that sends the base point to p: a sift step and a
    Schreier-generator test each need u_p^-1, and u_p itself is needed only
    for the rare Schreier generators that are not trivial."""

    __slots__ = ("base", "identity", "gens", "gen_invs", "inv_transversal")

    def __init__(self, base: int, identity: tuple[int, ...]):
        self.base = base
        self.identity = identity
        self.gens: list[tuple[int, ...]] = []
        self.gen_invs: list[tuple[int, ...]] = []
        self.inv_transversal = {base: identity}

    def extend(self, gens, gen_invs) -> None:
        """Add strong generators, given with their inverses, and rebuild the
        transversal down the Schreier tree of the base orbit: u_p = u_q*s
        for p's tree parent q and generator s, so u_p^-1 = s^-1 * u_q^-1,
        one take from the stored inverse of s."""
        self.gens += gens
        self.gen_invs += gen_invs
        gens, invs = self.gens, self.gen_invs
        inv_transversal: dict[int, tuple[int, ...]] = {}
        for point, edge in orbit(self.base, lambda x: [s[x] for s in gens]).items():
            inv_transversal[point] = (self.identity if edge is None
                                      else take(invs[edge[1]])(inv_transversal[edge[0]]))
        self.inv_transversal = inv_transversal


def _sift(levels: list[_ChainLevel], g: tuple[int, ...], start: int = 0):
    """Strip the image tuple g through levels[start:]; return (residue,
    stop_level). Each step is g -> g * u^-1, one take.

    stop_level == len(levels) means g passed every transversal; the residue
    is then the identity exactly when g is a member.
    """
    for i in range(start, len(levels)):
        level = levels[i]
        u_inv = level.inv_transversal.get(g[level.base])
        if u_inv is None:
            return g, i
        g = take(g)(u_inv)
    return g, len(levels)


def _schreier_sims(degree: int, generators: list[tuple[int, ...]]) -> list[_ChainLevel]:
    """The stabilizer chain of the group generated by the image tuples
    ``generators`` (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, 2005, section 4.4). The Schreier generator u_p * g * u_{g(p)}^-1
    is trivial exactly when g * u_{g(p)}^-1 equals u_p^-1, so only the
    nontrivial ones are formed and sifted."""
    identity = tuple(range(degree))
    gens = [g for g in generators if g != identity]
    if not gens:
        return []
    levels = [_ChainLevel(min(map(_first_moved, gens)), identity)]
    levels[0].extend(gens, [_inverse(g) for g in gens])
    dirty = {0}
    while dirty:
        i = max(dirty)
        level = levels[i]
        inv_transversal = level.inv_transversal
        clean = True
        for point in sorted(inv_transversal):
            u_inv = inv_transversal[point]
            for g in level.gens:
                g_t_inv = take(g)(inv_transversal[g[point]])
                if g_t_inv == u_inv:
                    continue
                residue, j = _sift(levels, take(_inverse(u_inv))(g_t_inv), i + 1)
                if residue == identity:
                    continue
                clean = False
                if j == len(levels):
                    levels.append(_ChainLevel(_first_moved(residue), identity))
                residue_inv = _inverse(residue)
                for k in range(i + 1, j + 1):
                    levels[k].extend([residue], [residue_inv])
                dirty.update(range(j + 1))
        if clean:
            dirty.discard(i)
    return levels


def _first_moved(images: tuple[int, ...]) -> int:
    """The smallest point a nonidentity image tuple moves: the next base
    point."""
    return next(x for x, y in enumerate(images) if x != y)


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
        self._levels = _schreier_sims(degree, [g.images for g in generators])

    @cached_property
    def order(self) -> int:
        n = 1
        for level in self._levels:
            n *= len(level.inv_transversal)
        return n

    def __contains__(self, g: Permutation) -> bool:
        if not isinstance(g, Permutation) or g.degree != self.degree:
            return False
        residue, stop = _sift(self._levels, g.images)
        return stop == len(self._levels) and residue == tuple(range(self.degree))

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def elements(self) -> list[Permutation]:
        """All elements, identity first, in a deterministic closure order."""
        return self.enumeration.elems

    @property
    def element_index(self) -> dict[tuple[int, ...], int]:
        return self.enumeration.index

    @cached_property
    def enumeration(self) -> Enumeration:
        """The elements as element ids, with their Schreier tree, columns
        and arithmetic, listed once and checked against the chain's order."""
        n = self.order
        if n > ENUM_CAP:
            raise CapExceeded(f"group order {n} exceeds cap {ENUM_CAP}")
        enum = Enumeration(self.degree, self.generators)
        if enum.n != n:
            raise CovnumError(f"enumerated {enum.n} elements, chain order {n}")
        return enum

    def is_cyclic(self) -> bool:
        if self.order == 1:
            return True
        if not self.is_abelian():  # a cyclic group is abelian
            return False
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

    @property
    def total(self) -> int:
        return sum(c.size for c in self.classes)

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
    maps = group.enumeration.conjugation_maps
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
    table = ConjClassTable(classes=classes)
    if table.total != group.order - 1:
        raise CovnumError(f"class sizes sum to {table.total}, expected {group.order - 1}")
    return table, assignment


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

"""Subgroup-level structure for enumerable permutation groups.

Everything here works on element-id sets: each subgroup is carried as a
frozenset of its parent's element ids, and the expensive operations (joins,
conjugation orbits, intersections) become index maps and set arithmetic on
the parent's groups.Enumeration, which grows a join <H, a> as a union of
right cosets of H, each the image of a known coset under one id column.
Every index map, from a coset image to a conjugate subgroup or an atom
permutation, is applied whole by perms.take at C speed, not entry by entry.
All orderings are deterministic.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import gcd

from .errors import (
    BudgetExceeded,
    CovnumError,
    IndexTooLarge,
    IngestInvalid,
    NoSupplement,
    OutOfRange,
    ParseError,
)
from .groups import Enumeration, PermGroup, label_index, orbit
from .perms import Permutation, _order, format_cycles, parse_permutation, take


LATTICE_MAX_ORDER = 5000  # largest group whose subgroup lattice is walked
COSET_DEGREE_MAX = 20000  # largest coset action that coset_action builds


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


def _kempner(n: int) -> int:
    """The least k with n dividing k! (Kempner's function), for n >= 1.
    Dividing n by gcd(n, k) for k = 2, 3, ... leaves n / gcd(n, k!)."""
    k = 1
    while n > 1:
        k += 1
        n //= gcd(n, k)
    return k


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of an enumerated parent, keyed by its element-id set."""

    parent: PermGroup
    elements: frozenset[int]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    @cached_property
    def generators(self) -> tuple[Permutation, ...]:
        """A small deterministic generating set, built when first read."""
        alg = self.parent.enumeration
        return tuple(map(Permutation._trusted,
                         take(alg.generating_ids(self.elements) or [0])(alg.elems)))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, index={self.index})"


def subgroup_from_gens(group: PermGroup, gens) -> Subgroup:
    """The subgroup generated by outside permutations, checked to lie in the
    group. Its ``generators`` are built from its elements, not kept."""
    alg = group.enumeration
    seed = []
    for g in gens:
        if g.images not in alg.index:
            raise IngestInvalid(f"generator {format_cycles(g)} is not in the parent group")
        seed.append(alg.index[g.images])
    return Subgroup(group, alg.closure(seed))


# ---------------------------------------------------------------------------
# Subgroup lattice by breadth-first join closure
# ---------------------------------------------------------------------------

def _atoms(group: PermGroup, subject) -> tuple[list[tuple[frozenset[int], int]], dict[int, int]]:
    """The cyclic subgroups of prime-power order among the sorted ids
    ``subject``, with one generator id each, and the map from each element
    id generating one of them to its index. Element orders are read from the
    group's class table, one per class, not computed per element, and
    powers are image tuples composed by take and looked up in the
    enumeration's index; the identity, id 0, has no class and generates no
    atom."""
    alg = group.enumeration
    orders = [c.element_order for c in group.conjugacy_classes()]
    assignment = group.class_assignment()
    seen: dict[frozenset[int], int] = {}
    generates: dict[int, frozenset[int]] = {}
    for x in subject:
        if x == 0 or x in generates:
            continue
        k = orders[assignment[x]]
        try:
            p = prime_power(k)[0]
        except OutOfRange:
            continue
        q = alg.elems[x]
        times_g = take(q)  # q -> g q = q g on image tuples
        powers = [x]  # the ids of g, g^2, ..., g^k = 1
        for _ in range(k - 1):
            q = times_g(q)
            powers.append(alg.index[q])
        ids = frozenset(powers)
        seen[ids] = x
        # g^e generates <g> exactly when p does not divide e
        generates.update((y, ids) for e, y in enumerate(powers, start=1) if e % p)
    atoms = sorted(seen.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    position = {ids: a for a, (ids, _) in enumerate(atoms)}
    return atoms, {x: position[ids] for x, ids in generates.items()}


def _normalizer(alg: Enumeration, tree: dict,
                gen_ids=()) -> tuple[frozenset[int], list[tuple[int, ...]]]:
    """N_G(H) for the root H of a conjugation-orbit tree, with a generating
    set given as words in the group generators.

    N_G(H) is the stabilizer of H, so it is generated by the Schreier
    generators t_s g t_{s^g}^-1 of the tree's transversal. A letter k < m
    is generator k and k + m its inverse, m being the number of generators,
    and a word's element is its letters' columns applied in turn to the
    identity. A Schreier generator is kept only when it enlarges the closure
    of those kept before, and the search stops at |G| / (orbit length).
    Given ids ``gen_ids`` that generate H, the closure starts at H, since H
    lies in N_G(H), with their tree words as the first words; a
    self-normalizing H then tests no Schreier generator."""
    m = len(alg.generators)
    cols = alg.gen_cols
    inv_cols = alg.inv_gen_cols
    transversal: dict[frozenset[int], tuple[tuple[int, ...], int]] = {}
    for s, edge in tree.items():  # parents come before their children
        if edge is None:
            transversal[s] = ((), 0)
        else:
            word, x = transversal[edge[0]]
            transversal[s] = (word + (edge[1],), cols[edge[1]][x])
    target = alg.n // len(tree)
    kept = list(gen_ids)
    words = [tuple(alg.word(g)) for g in kept]
    current = next(iter(tree)) if kept else frozenset({0})
    for s, (word, x) in transversal.items():
        for k in range(m):
            if len(current) == target:
                return current, words
            back = transversal[alg.conjugate_set(s, k)][0]
            z = cols[k][x]
            for b in reversed(back):
                z = inv_cols[b][z]
            if z not in current:
                kept.append(z)
                words.append(word + (k,) + tuple(m + b for b in reversed(back)))
                current = alg.join(current, kept)
    if len(current) != target:
        raise CovnumError(f"normalizer of order {len(current)}, orbit says {target}")
    return current, words


def _overgroup_cap(group: PermGroup, within: frozenset[int] | None = None):
    """The walk's cap on its joins: a function from the ids of a subgroup H
    of G, or of N = ``within``, to the largest order that a proper subgroup
    of G (of N) containing H can have, |G|/d_H as _lattice_walk proves.
    G's normal subgroups are listed once, each K with f(|G:K|). Within N,
    whose own normal subgroups are not computed, only K = 1 is listed, with
    the bound 2 that every proper subgroup's index meets, so the cap is
    |N|/q, q the least prime dividing [N:H]."""
    if within is None:
        n = group.order
        bounds = [(k.elements, _kempner(n // k.order)) for k in normal_subgroups(group)[:-1]]
    else:
        n, bounds = len(within), [(frozenset({0}), 2)]

    def cap(ids: frozenset[int]) -> int:
        index = n // len(ids)
        if index == 1:  # H is G, or N: no proper subgroup contains it
            return n
        least = min(f for k, f in bounds if len(ids) * len(k) < n * len(ids & k))
        return n // next(d for d in range(least, index + 1) if index % d == 0)

    return cap


def _lattice_classes(group: PermGroup, lattice_max_order: int = LATTICE_MAX_ORDER,
                     within: frozenset[int] | None = None
                     ) -> list[tuple[list[frozenset[int]], bool]]:
    """Every conjugacy class of subgroups as (orbit, maximal), or those in
    N: the classes of _lattice_walk, each orbit tree listed by its keys."""
    walk = _lattice_walk(group, lattice_max_order, within)
    return [(list(tree), maximal) for tree, _, maximal in walk]


def _lattice_walk(group: PermGroup, lattice_max_order: int,
                  within: frozenset[int] | None
                  ) -> list[tuple[dict, list[int], bool]]:
    """Every conjugacy class of subgroups, or those in N, as (conjugation
    orbit tree, generator ids of its first member, maximal).

    Breadth-first join closure: start from the cyclic prime-power subgroups
    (the atoms), join the conjugate H each class was admitted with to one
    atom from each N_G(H)-orbit of atoms outside it, and close each new
    subgroup under conjugation, which makes joins with one conjugate per
    class complete. Since <H, a^h> = <H, a>^h for h in N_G(H), each join
    skipped is conjugate to one that is made (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005).
    A proper class is maximal exactly when every such join is the whole
    group: an element of a larger proper subgroup that lies outside H has a
    prime-power part outside H, and that part generates an atom whose join
    with H stays proper. A join's class and whether it is the whole group
    are constant on an N_G(H)-orbit, so the pruning keeps both the classes
    and the flag exact. N_G(H) acts on the atoms by table lookups only: each
    generator's permutation of the atoms comes from its conjugation map, and
    a normalizer generator acts as its word in those permutations, composed
    with take.
    Each join <H, a> is grown by coset images (Enumeration.cosets; Butler,
    Fundamental Algorithms for Permutation Groups, 1991) from the larger of
    H and <a>, and it stops as soon as it outgrows every proper overgroup of
    H. Let J be a proper subgroup containing H, and K = core_G(J). Then K is
    a proper normal subgroup, HK <= J, and G/K acts faithfully on the [G:J]
    cosets of J, so |G:K| divides [G:J]!, and [G:J] divides [G:H]. With
    f(n) the least k such that n divides k!, [G:J] is at least d_H, the
    least divisor of [G:H] that is at least the least f(|G:K|) over the
    proper normal K with HK != G, that is |H||K| < |G||H meet K|; K = 1 is
    always one. So J has at most |G|/d_H elements (_overgroup_cap), and a
    join that passes that cap is G. Within N the cap stays |N|/q, q the
    least prime dividing [N:H].
    A join is skipped when an atom b inside H has <b, a> = G, since then
    <H, a> = G. The atom classes' own joins decide every atom pair: full[a]
    holds the atoms b with <a, b> = G, one bit each, and full[b^g] =
    full[b]^g fills the rest of b's class once b is done. The skipped atoms
    are N_G(H)-invariant, so the test comes before a's orbit is computed,
    and one skipped while an atom class is joined goes into its full set.
    Two more rules decide joins whose subgroup is already seen. While an
    atom class <b> is joined, an atom a of an earlier atom class is skipped
    unless full[a] holds b: <b, a> is then proper and conjugate to a join
    made from a's class. A join with an atom that lies in a proper join J
    already made from H, the smallest such, is capped at |J|/p, p the least
    prime dividing [J:H]: a subgroup of J that contains H and is not J has
    an index in J that divides [J:H], so a join that passes the cap is J.
    Of the joins skipped or stopped early, only those skipped by full would
    reach G, and those admit no class and clear no flag; the others are
    proper, so they clear the flag and admit nothing new. The walk's output
    is the same as with every join made.
    Each class keeps the generators of the join that found it, so nothing
    is spanned again from the identity. Given the ids of a normal subgroup
    N as ``within``, the walk gives the G-classes of N's subgroups on G's
    element ids: the atoms are N's, every join stays in N, N_G(H) permutes them,
    and the overgroup bound, atom-pair sets and flag (maximal in N) read |N|.
    Each class comes with the tree it was closed under conjugation with,
    whose first key is the member it was admitted as, and the generator ids
    of that member, so callers can seed _normalizer with them.
    """
    if group.order > lattice_max_order:
        raise BudgetExceeded(f"lattice budget: order {group.order} > {lattice_max_order}")
    alg = group.enumeration
    subject = range(alg.n) if within is None else sorted(within)
    atoms, atom_of = _atoms(group, subject)
    overgroup_cap = _overgroup_cap(group, within)
    # letter k of a normalizer word moves the atoms as generator k does,
    # letter k + m as its inverse (m generators)
    moves = [[atom_of[cmap[gen]] for _, gen in atoms] for cmap in alg.conjugation_maps]
    moves += [sorted(range(len(atoms)), key=move.__getitem__) for move in moves]
    # bit x of an atom set is character last - x of its binary text, and
    # generator k moves the text by bit_moves[k]
    last, width = len(atoms) - 1, f"0{len(atoms)}b"
    bit_moves = [take([last - inverse[last - i] for i in range(len(atoms))])
                 for inverse in moves[len(alg.conjugation_maps):]]
    seen: set[frozenset[int]] = set()
    classes: list[list] = []  # [ids, generator ids, orbit tree, maximal]

    def admit(ids: frozenset[int], gen_ids: list[int]) -> None:
        if ids not in seen:
            tree = alg.conjugation_orbit(ids)
            seen.update(tree)
            classes.append([ids, gen_ids, tree, len(ids) < len(subject)])

    admit(frozenset({0}), [])
    for ids, gen in atoms:
        admit(ids, [gen])
    atom_classes = len(classes)
    full = [0] * len(atoms)  # bit b of full[a]: <atom a, atom b> = G, or N
    done: set[int] = set()  # the atoms of the atom classes already joined
    for pos, cls in enumerate(classes):  # grows as joins admit new classes
        ids, gens, tree = cls[0], cls[1], cls[2]
        proper_cap = overgroup_cap(ids)
        actions = []
        for word in _normalizer(alg, tree, gens)[1]:
            action = moves[word[0]]
            for letter in word[1:]:
                action = take(action)(moves[letter])
            actions.append(action)
        inside = sum(1 << a for a, (_, atom_gen) in enumerate(atoms) if atom_gen in ids)
        reach = []  # the atoms whose join with H is G, or N
        covered: set[int] = set()
        overs: list[frozenset[int]] = []  # the proper joins made from H, smallest first
        for a, (atom, atom_gen) in enumerate(atoms):
            if a in covered or atom_gen in ids:
                continue
            if full[a] & inside:
                reach.append(a)
                continue
            if a in done and pos < atom_classes:  # <b, a> was met from a's class
                cls[3] = False
                continue
            covered.add(a)
            cover = [a]
            for c in cover:  # a's N_G(H)-orbit, breadth first
                for act in actions:
                    if act[c] not in covered:
                        covered.add(act[c])
                        cover.append(act[c])
            over = next((j for j in overs if atom_gen in j), None)
            cap = proper_cap if over is None else \
                len(over) // smallest_prime_factor(len(over) // len(ids))
            joined = alg.join(max(ids, atom, key=len), gens + [atom_gen], bail_above=cap)
            if joined is None:
                if over is None:
                    reach += cover
                continue
            cls[3] = False
            insort(overs, joined, key=len)
            if joined not in seen:
                admit(joined, gens + [atom_gen])
        if 0 < pos < atom_classes:  # H = <b> is an atom: full[b^g] = full[b]^g
            at = {ids: atom_of[gens[0]]}
            full[at[ids]] = sum(1 << x for x in reach)
            for s, edge in tree.items():  # parents come before their children
                if edge is not None:
                    b = at[s] = moves[edge[1]][at[edge[0]]]
                    text = format(full[at[edge[0]]], width)
                    full[b] = int("".join(bit_moves[edge[1]](text)), 2)
            done.update(at.values())
    top = frozenset(subject)
    if top not in seen:  # nothing joins from G, or N, and it is its own orbit
        classes.append([top, [], {top: None}, False])
    return [(tree, gens, maximal) for _, gens, tree, maximal in classes]


def all_subgroups(group: PermGroup) -> list[Subgroup]:
    """Every subgroup of the group, including the trivial and full ones, for
    a group of order at most LATTICE_MAX_ORDER."""
    sets = [ids for orbit, _ in _lattice_classes(group) for ids in orbit]
    return [Subgroup(group, ids) for ids in sorted(sets, key=lambda s: (len(s), sorted(s)))]


# ---------------------------------------------------------------------------
# Maximal subgroup classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxClass:
    """One conjugacy class of maximal subgroups."""

    rep: Subgroup
    label: str
    members: tuple[frozenset[int], ...] = field(repr=False)

    @property
    def class_length(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return self.rep.index

    @property
    def self_normalizing(self) -> bool:
        return self.class_length == self.index


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


def _package_max_classes(group: PermGroup, orbits: list[list[frozenset[int]]],
                         provenance: str) -> MaxClassSet:
    # by index, then class length, then the least member, which is the rep
    ordered = sorted((tuple(sorted(orbit, key=sorted)) for orbit in orbits),
                     key=lambda members: (-len(members[0]), len(members), sorted(members[0])))
    classes = [
        MaxClass(rep=Subgroup(group, members[0]), label=f"M{pos}", members=members)
        for pos, members in enumerate(ordered, start=1)]
    return MaxClassSet(classes=tuple(classes), provenance=provenance)


def maximal_classes_computed(group: PermGroup,
                             lattice_max_order: int = LATTICE_MAX_ORDER) -> MaxClassSet:
    """Maximal subgroup classes, split at a minimal normal subgroup N.

    A maximal subgroup M either contains N, and is then the preimage of a
    maximal subgroup of Q = G/N, or has MN = G (Eick and Hulpke, "Computing
    the maximal subgroups of a permutation group I", 2001; Cannon and Holt,
    J. Symbolic Comput. 37, 2004). Q is the image of the coset action on N,
    which is regular, so its element q is the coset numbered q(0), and the
    same split is applied to Q in turn. The classes with MN = G come from
    _supplement_classes. The subgroup lattice is walked only at the bottom
    of that chain: where N is the whole group (a simple quotient), or where
    N's complements are over the budget of complements. The cap applies to
    |G|, as for the walk, and the result is the walk's, class for class."""
    if group.order > lattice_max_order:
        raise BudgetExceeded(f"lattice budget: order {group.order} > {lattice_max_order}")
    # per level: G/N, the cosets of N numbered as in its coset action, and
    # the classes with MN = G
    levels = []
    current = group
    while normals := minimal_normal_subgroups(current):
        normal = normals[0]
        if normal.order == current.order:
            break
        try:
            supplements = _supplement_classes(normal, lattice_max_order)
        except BudgetExceeded:
            break
        alg = current.enumeration
        cosets = alg.cosets(sorted(normal.elements), alg.gen_ids)
        current = coset_action(normal)[0]
        levels.append((current, cosets, supplements))
    orbits = [orbit for orbit, maximal in _lattice_classes(current, lattice_max_order)
              if maximal]
    for quotient, cosets, supplements in reversed(levels):
        preimage = [cosets[q[0]] for q in quotient.enumeration.elems]
        orbits = [[frozenset(chain.from_iterable(take(member)(preimage)))
                   for member in orbit] for orbit in orbits] + supplements
    return _package_max_classes(group, orbits, "computed")


def _supplement_classes(normal: Subgroup,
                        lattice_max_order: int) -> list[list[frozenset[int]]]:
    """The classes of maximal subgroups M with MN = G, for a minimal normal
    subgroup N < G; BudgetExceeded when N's complements are over budget.

    N is a direct power of one simple group, so it is abelian exactly when
    its order is a prime power. If it is, M meets N trivially (M meet N is
    normalized by M and by N, so normal in G), and these classes are the
    complements of N, all maximal by the Dedekind argument of
    registry.sigma_solvable. Otherwise K = M meet N is 1, and M a complement
    of N, or K is a nontrivial proper subgroup of N normalized by M, and M =
    N_G(K) by maximality, with N_G(K)N = G. Every such candidate lies in a
    maximal subgroup with the same property, and that is a candidate too, so
    the maximal ones are the candidates inside no other candidate. One K is
    taken per G-class of N's subgroups, walked within N on G's element ids,
    and N_G(K) is grown from K's generators along the walk's orbit tree."""
    group = normal.parent
    alg = group.enumeration
    candidates: list[list[frozenset[int]]] = []
    seen: set[frozenset[int]] = set()
    for ids in complements(Subgroup(group, frozenset({0})), normal):
        if ids not in seen:
            candidates.append(list(alg.conjugation_orbit(ids)))
            seen.update(candidates[-1])
    try:
        prime_power(normal.order)
        return candidates  # N is abelian
    except OutOfRange:
        pass
    for tree, gens, _ in _lattice_walk(group, lattice_max_order, normal.elements):
        if not 1 < len(next(iter(tree))) < normal.order:
            continue
        norm = _normalizer(alg, tree, gens)[0]
        if norm not in seen and \
                len(norm) * normal.order == alg.n * len(norm & normal.elements):
            candidates.append(list(alg.conjugation_orbit(norm)))
            seen.update(candidates[-1])
    return [orbit for orbit in candidates
            if not any(orbit[0] < m for other in candidates for m in other)]


def complements(low: Subgroup, high: Subgroup) -> list[frozenset[int]]:
    """Every complement of high/low in G, for normal subgroups low < high of
    G: the subgroups C with C meet high = low and C·high = G.

    Take x_1..x_k among G's generators, each kept when it enlarges
    L_i = <high, x_1, ..., x_i>, until they generate G modulo high, and a
    transversal T of low in high. A complement C meets each coset high·x_i
    in exactly one coset low·t_i·x_i with t_i in T, and is generated by low
    and those elements. So each complement comes from exactly one tuple
    (t_1..t_k). A prefix P_i = <low, t_1 x_1, ..., t_i x_i> has P_i·high =
    L_i, and it lies in a complement only if it meets high in low, that is
    only if |P_i| = |L_i||low|/|high|; at i = k that order makes P_k a
    complement. The tuples are searched depth first, one join per prefix
    that stops above that order, and a prefix of another order is not
    extended. Each join stops above |G||low|/|high| elements, and
    BudgetExceeded comes before more than |G||high|/|low| joins, which
    bounds the search by about |G|^2 element steps."""
    alg = high.parent.enumeration
    xs: list[int] = []
    orders: list[int] = []  # |P_i| = |L_i||low|/|high|
    span = high.elements
    for x in alg.gen_ids:
        if len(span) == alg.n:
            break
        if x not in span:
            xs.append(x)
            span = alg.join(span, xs)  # high is normal, so L_i = high <x_1, ..., x_i>
            orders.append(len(span) * low.order // high.order)
    transversal = [coset[0] for coset in alg.cosets(sorted(low.elements),
                                                    alg.generating_ids(high.elements))]
    # t_i x_i lies in P_i, so its order divides |P_i|
    choices = [[y for t in transversal if order % _order(alg.elems[y := col[t]]) == 0]
               for order, col in zip(orders, map(alg.column, xs))]
    factor = high.order // low.order
    budget = alg.n * factor  # each join stops above |G|/factor elements
    found = []
    joins = 0
    stack = [(low.elements, [])]
    while stack:
        prefix, gens = stack.pop()
        i = len(gens)
        if i == len(xs):
            found.append(prefix)
            continue
        joins += len(choices[i])
        if joins > budget:
            raise BudgetExceeded(f"complement budget: more than {budget} joins "
                                 f"for a factor of order {factor}")
        for y in reversed(choices[i]):
            joined = alg.join(prefix, gens + [y], bail_above=orders[i])
            if joined is not None and len(joined) == orders[i]:
                stack.append((joined, gens + [y]))
    return found


def maximal_classes_from_file(group: PermGroup, text: str,
                              lattice_max_order: int = LATTICE_MAX_ORDER) -> MaxClassSet:
    """Ingest maximal subgroup classes and verify them.

    Each listed subgroup is checked to be a genuine proper subgroup, and its
    index and class length are recomputed. A group within lattice_max_order
    must then list exactly the classes of maximal_classes_computed, which
    proves every class maximal and the list complete. Above the cap only
    maximality is checked, class by class, by the local check of
    _verify_maximal: joining any coset representative to the listed
    generators must generate the whole group.
    """
    alg = group.enumeration
    entries = _parse_maximal_file(text, group.degree)
    orbits = []
    seen_sets: set[frozenset[int]] = set()
    for claim_index, claim_length, gens in entries:
        sub = subgroup_from_gens(group, gens)
        if sub.index != claim_index:
            raise IngestInvalid(
                f"declared index {claim_index}, computed {sub.index}")
        if sub.index == 1:
            raise IngestInvalid("not maximal: the listed subgroup is the whole group")
        orbit = list(alg.conjugation_orbit(sub.elements))
        if len(orbit) != claim_length:
            raise IngestInvalid(
                f"declared class length {claim_length}, computed {len(orbit)}")
        if sub.elements in seen_sets:
            raise IngestInvalid("two listed subgroups are conjugate")
        seen_sets.update(orbit)
        orbits.append(orbit)
        if group.order > lattice_max_order:
            _verify_maximal(sub, [alg.index[g.images] for g in gens])
    mx = _package_max_classes(group, orbits, "ingested")
    if group.order <= lattice_max_order:
        computed = maximal_classes_computed(group, lattice_max_order)
        if [c.members for c in mx.classes] != [c.members for c in computed.classes]:
            raise IngestInvalid(f"the ingested maximal classes ({len(mx.classes)}) are not "
                                f"the computed ones ({len(computed.classes)})")
    return mx


def _coset_decomposition(sub: Subgroup) -> tuple[list[int], dict[int, int]]:
    """Right cosets of sub: representative ids (identity first, then in
    breadth-first order under the group generators) and the map element
    id -> coset number. Each coset is the image of an earlier one under a
    generator column, so no permutation is multiplied."""
    alg = sub.parent.enumeration
    cosets = alg.cosets(sorted(sub.elements), alg.gen_ids)
    rep_ids = [coset[0] for coset in cosets]
    coset_of = {x: c for c, coset in enumerate(cosets) for x in coset}
    if len(rep_ids) != sub.index:
        raise CovnumError(f"found {len(rep_ids)} cosets, index is {sub.index}")
    return rep_ids, coset_of


def _verify_maximal(sub: Subgroup, gen_ids: list[int]) -> None:
    """Local maximality check of H = sub, generated by the ids gen_ids:
    adjoining any coset representative r must generate the whole group.
    Since <H, r> = <H, h r h'> for h, h' in H, one r per double coset H r H
    decides all of its cosets, the orbit of Hr under H's generator columns
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005).
    <H, r> is the whole group exactly when its join grows past |G|/q, q the
    least prime dividing [G:H], since a proper overgroup of H has index a
    divisor of [G:H] other than 1. The walk's sharper cap, _overgroup_cap,
    is not used: it lists G's normal subgroups, which on M11 takes about as
    long as the whole ingest of its maximal list. H must be proper."""
    alg = sub.parent.enumeration
    rep_ids, coset_of = _coset_decomposition(sub)
    hcols = [alg.column(g) for g in gen_ids]
    proper_cap = alg.n // smallest_prime_factor(sub.index)
    decided = {0}
    for c, r in enumerate(rep_ids):
        if c in decided:
            continue
        decided.update(orbit(c, lambda d: [coset_of[col[rep_ids[d]]] for col in hcols]))
        joined = alg.join(sub.elements, gen_ids + [r], bail_above=proper_cap)
        if joined is not None:
            adjoined = format_cycles(Permutation._trusted(alg.elems[r]))
            raise IngestInvalid(f"not maximal: adjoining {adjoined} gives a proper "
                                f"subgroup of order {len(joined)}")


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

def normal_core(sub: Subgroup) -> Subgroup:
    """Largest normal subgroup of the parent inside sub: the intersection of
    all conjugates."""
    alg = sub.parent.enumeration
    core = set(sub.elements)
    for member in alg.conjugation_orbit(sub.elements):
        core &= member
        if len(core) == 1:
            break
    return Subgroup(sub.parent, frozenset(core))


def coset_action(sub: Subgroup) -> tuple[PermGroup, Subgroup]:
    """Action of the parent on right cosets of sub; returns (image group,
    kernel). The kernel is the core of sub."""
    group = sub.parent
    index = sub.index
    if index > COSET_DEGREE_MAX:
        raise IndexTooLarge(f"index {index} exceeds {COSET_DEGREE_MAX}")
    alg = group.enumeration
    rep_ids, coset_of = _coset_decomposition(sub)
    at_reps = take(rep_ids)  # r -> coset_of[col[r]] is a generator's image
    image_gens = [Permutation(take(at_reps(col))(coset_of)) for col in alg.gen_cols]
    image = PermGroup(index, image_gens,
                      name=f"{group.name or 'G'}/cosets({sub.order})")
    kernel = normal_core(sub)
    if image.order * kernel.order != group.order:
        raise CovnumError(f"coset image order {image.order} times kernel order "
                          f"{kernel.order} is not {group.order}")
    return image, kernel


def normal_subgroups(group: PermGroup) -> list[Subgroup]:
    """Every normal subgroup, sorted by order and then by element ids.

    A normal subgroup is the join of the normal closures of the class
    representatives it contains, so closing those closures under joins finds
    them all (no lattice needed). Representatives with the same closure give
    the same joins, so one is kept per closure. The join of N with the
    closure of x is the normal closure of x and the representatives N was
    built from."""
    alg = group.enumeration
    singles = _class_closures(group)
    found = [(ids, [x]) for ids, x in singles.items()]
    seen = {frozenset({0}), *singles}
    for ids, gens in found:  # grows as joins find new normal subgroups
        for x in singles.values():
            if x not in ids:
                joined = alg.normal_closure(gens + [x])
                if joined not in seen:
                    seen.add(joined)
                    found.append((joined, gens + [x]))
    return [Subgroup(group, ids) for ids in sorted(seen, key=lambda s: (len(s), sorted(s)))]


def _class_closures(group: PermGroup) -> dict[frozenset[int], int]:
    """The normal closure of each conjugacy class representative, keyed by
    its elements, with the first representative that gives it."""
    alg = group.enumeration
    singles: dict[frozenset[int], int] = {}
    for cls in group.conjugacy_classes():
        x = alg.index[cls.rep.images]
        singles.setdefault(alg.normal_closure([x]), x)
    return singles


def minimal_normal_subgroups(group: PermGroup) -> list[Subgroup]:
    """The nontrivial normal subgroups with no nontrivial normal subgroup
    strictly inside, sorted as normal_subgroups sorts them.

    A minimal normal subgroup is the normal closure of each of its
    nontrivial elements, and a nontrivial normal subgroup contains the
    closure of each of its class representatives, so these are the minimal
    ones among the closures of the class representatives; no joins are
    needed."""
    singles = sorted(_class_closures(group), key=lambda s: (len(s), sorted(s)))
    return [Subgroup(group, n) for n in singles if not any(m < n for m in singles)]


def chief_series(group: PermGroup) -> list[Subgroup]:
    """A chief series 1 = N_0 < N_1 < ... < N_r = G: normal subgroups with
    no normal subgroup strictly between consecutive terms.

    normal_subgroups lists by order, so the first normal subgroup after the
    last term kept that properly contains it is the least one above it, and
    nothing normal lies strictly between them. One pass keeps each in turn."""
    normals = normal_subgroups(group)
    series = normals[:1]
    for sub in normals:
        if series[-1].elements < sub.elements:
            series.append(sub)
    if series[-1].order != group.order:
        raise CovnumError(f"chief series stops at order {series[-1].order}")
    return series


def solvable_series(series: list[Subgroup]) -> bool:
    """Whether every factor of the chief series has prime-power order, which
    decides whether its group is solvable (see is_solvable)."""
    try:
        for below, above in zip(series, series[1:]):
            prime_power(above.order // below.order)
    except OutOfRange:
        return False
    return True


def is_solvable(group: PermGroup) -> bool:
    """True iff every chief factor has prime-power order.

    A chief factor H/K is a minimal normal subgroup of G/K, so a direct
    power of one simple group T. When |H/K| is a power of a prime p, T is a
    simple p-group, so T has order p and H/K is elementary abelian; a group
    with a series of abelian factors is solvable. Conversely every chief
    factor of a solvable group is elementary abelian."""
    return solvable_series(chief_series(group))


def is_primitive_monolithic(group: PermGroup, mx: MaxClassSet):
    """(primitive, monolithic, min primitivity degree or None)."""
    degrees = [cls.index for cls in mx.classes if normal_core(cls.rep).order == 1]
    primitive = bool(degrees)
    monolithic = len(minimal_normal_subgroups(group)) == 1
    return primitive, monolithic, (min(degrees) if degrees else None)


def min_supplement_index(normal: Subgroup, mx: MaxClassSet) -> int:
    """Minimal index of a maximal subgroup H of N's parent G with H·N = G."""
    n = normal.parent.order
    indices = [cls.index for cls in mx.classes  # |H||N|/|H∩N| == |G|
               if cls.rep.order * normal.order == n * len(cls.rep.elements & normal.elements)]
    if not indices:
        raise NoSupplement("every maximal subgroup contains the normal subgroup")
    return min(indices)

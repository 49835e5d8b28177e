"""Built-in library of named groups used by the CLI, the batch suites and
the test corpus. Constructions are deterministic; orders are checked."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from importlib import resources

from .affine import affine_group
from .errors import CovnumError, Unknown
from .groups import PermGroup, parse_group_file
from .perms import Permutation, parse_permutation
from .subgroups import LATTICE_MAX_ORDER, MaxClassSet, maximal_classes_computed, \
    maximal_classes_from_file


def _perm(degree: int, text: str) -> Permutation:
    return parse_permutation(text, degree)


def _checked(g: PermGroup, order: int) -> PermGroup:
    """The group, after checking that its construction has the given order."""
    if g.order != order:
        raise CovnumError(f"{g.name} has order {g.order}, expected {order}")
    return g


def cyclic(n: int) -> PermGroup:
    return PermGroup(n, [Permutation(tuple(range(1, n)) + (0,))], name=f"C{n}")


def dihedral(order: int) -> PermGroup:
    """Dihedral group of the given (even, >= 6) order, on order/2 points."""
    if order % 2 or order < 6:
        raise ValueError("dihedral order must be even and at least 6")
    n = order // 2
    rot = Permutation(tuple(range(1, n)) + (0,))
    ref = Permutation(tuple((n - i) % n for i in range(n)))
    return _checked(PermGroup(n, [rot, ref], name=f"D{order}"), order)


def symmetric(n: int) -> PermGroup:
    gens = [Permutation(tuple(range(1, n)) + (0,))]
    if n >= 2:
        gens.append(Permutation((1, 0) + tuple(range(2, n))))
    g = PermGroup(n, gens, name=f"S{n}")
    return g


def alternating(n: int) -> PermGroup:
    if n < 3:
        raise ValueError("need n >= 3")
    cyc3 = Permutation((1, 2, 0) + tuple(range(3, n)))
    if n % 2:
        big = Permutation(tuple(range(1, n)) + (0,))
    else:
        big = Permutation((0,) + tuple(range(2, n)) + (1,))
    g = PermGroup(n, [cyc3, big], name=f"A{n}")
    return g


def elementary_abelian(p: int, k: int) -> PermGroup:
    """C_p^k on k disjoint p-cycles."""
    gens = []
    for i in range(k):
        images = list(range(p * k))
        block = list(range(i * p, (i + 1) * p))
        for a, b in zip(block, block[1:] + block[:1]):
            images[a] = b
        gens.append(Permutation(images))
    name = f"C{p}^{k}" if k > 1 else f"C{p}"
    return _checked(PermGroup(p * k, gens, name=name), p ** k)


def direct_product(a: PermGroup, b: PermGroup, name: str | None = None) -> PermGroup:
    """Direct product acting on the disjoint union of the two point sets."""
    da, db = a.degree, b.degree
    gens = []
    for g in a.generators:
        gens.append(Permutation(g.images + tuple(range(da, da + db))))
    for g in b.generators:
        gens.append(Permutation(tuple(range(da)) + tuple(x + da for x in g.images)))
    return _checked(PermGroup(da + db, gens, name=name or f"{a.name}x{b.name}"),
                    a.order * b.order)


def quaternion8() -> PermGroup:
    # regular representation on 1, i, j, k, -1, -i, -j, -k
    g = _checked(PermGroup(8, [_perm(8, "(1,2,5,6)(3,8,7,4)"),
                               _perm(8, "(1,3,5,7)(2,4,6,8)")], name="Q8"), 8)
    if g.is_abelian():
        raise CovnumError("Q8 construction is abelian")
    return g


def frobenius21() -> PermGroup:
    return _checked(PermGroup(7, [_perm(7, "(1,2,3,4,5,6,7)"), _perm(7, "(2,3,5)(4,7,6)")],
                              name="F21"), 21)


def psl27() -> PermGroup:
    # on the projective line over GF(7): points 1..7 are 0..6, point 8 is infinity
    return _checked(PermGroup(8, [_perm(8, "(1,2,3,4,5,6,7)"),
                                  _perm(8, "(1,8)(2,7)(3,4)(5,6)")], name="PSL(2,7)"), 168)


def pgl27() -> PermGroup:
    return _checked(PermGroup(8, [_perm(8, "(1,2,3,4,5,6,7)"),
                                  _perm(8, "(1,8)(2,7)(3,4)(5,6)"),
                                  _perm(8, "(2,4,3,7,5,6)")], name="PGL(2,7)"), 336)


def m11() -> PermGroup:
    text = resources.files("covnum.data").joinpath("m11.grp").read_text()
    return _checked(parse_group_file(text, name="M11"), 7920)


@dataclass(frozen=True)
class LibraryEntry:
    key: str                      # CLI name
    registry_name: str | None     # row in the known-values registry, if any
    build: callable
    maximals_file: str | None = None  # bundled ingestion data, for large groups


def _agl(n, q):
    return lambda: affine_group(n, q)[0]


_ENTRIES: list[LibraryEntry] = [
    LibraryEntry("V4", "V4", lambda: elementary_abelian(2, 2)),
    LibraryEntry("S3", "S3", lambda: symmetric(3)),
    LibraryEntry("S4", None, lambda: symmetric(4)),
    LibraryEntry("S5", "S5", lambda: symmetric(5)),
    LibraryEntry("S6", "S6", lambda: symmetric(6)),
    LibraryEntry("A4", None, lambda: alternating(4)),
    LibraryEntry("A5", "A5", lambda: alternating(5)),
    LibraryEntry("A6", "A6", lambda: alternating(6)),
    LibraryEntry("C5", None, lambda: cyclic(5)),
    LibraryEntry("C6", None, lambda: cyclic(6)),
    LibraryEntry("D8", None, lambda: dihedral(8)),
    LibraryEntry("D10", None, lambda: dihedral(10)),
    LibraryEntry("D12", None, lambda: dihedral(12)),
    LibraryEntry("Q8", None, quaternion8),
    LibraryEntry("F21", None, frobenius21),
    LibraryEntry("C3xC3", None, lambda: elementary_abelian(3, 2)),
    LibraryEntry("PSL27", "PSL(2,7)", psl27),
    LibraryEntry("PGL27", "PGL(2,7)", pgl27),
    LibraryEntry("AGL13", "AGL(1,3)", _agl(1, 3)),
    LibraryEntry("AGL14", "AGL(1,4)", _agl(1, 4)),
    LibraryEntry("AGL15", "AGL(1,5)", _agl(1, 5)),
    LibraryEntry("AGL17", "AGL(1,7)", _agl(1, 7)),
    LibraryEntry("AGL18", "AGL(1,8)", _agl(1, 8)),
    LibraryEntry("AGL19", None, _agl(1, 9)),
    LibraryEntry("AGL32", "AGL(3,2)", _agl(3, 2)),
    LibraryEntry("A5xC2", None,
                 lambda: direct_product(alternating(5), cyclic(2), name="A5xC2")),
    LibraryEntry("M11", "M11", m11, maximals_file="m11.max"),
]

_BY_KEY = {e.key: e for e in _ENTRIES}


def entry(key: str) -> LibraryEntry:
    e = _BY_KEY.get(key)
    if e is None:
        raise Unknown(f"no library group named {key!r} "
                      f"(known: {', '.join(sorted(_BY_KEY))})")
    return e


def names() -> list[str]:
    return [e.key for e in _ENTRIES]


@cache
def group(key: str) -> PermGroup:
    return entry(key).build()


def maximals(key: str, lattice_max_order: int = LATTICE_MAX_ORDER) -> MaxClassSet:
    """The group's maximal classes: its bundled file, ingested and checked by
    maximal_classes_from_file under the lattice cap, or else computed. They
    are cached on (key, cap), however the call spells them."""
    return _maximals(key, lattice_max_order)


@cache
def _maximals(key: str, lattice_max_order: int) -> MaxClassSet:
    e = entry(key)
    g = group(key)
    if e.maximals_file is not None:
        text = resources.files("covnum.data").joinpath(e.maximals_file).read_text()
        return maximal_classes_from_file(g, text, lattice_max_order)
    return maximal_classes_computed(g, lattice_max_order)


def solvable_suite() -> list[PermGroup]:
    """Solvable noncyclic groups of order <= 500 for the formula cross-check:
    dihedral groups, elementary-abelian and product constructions, and the
    one-dimensional affine groups."""
    groups: list[PermGroup] = []
    for order in range(6, 34, 2):
        groups.append(dihedral(order))
    groups += [
        elementary_abelian(2, 2),
        elementary_abelian(2, 3),
        elementary_abelian(3, 2),
        elementary_abelian(5, 2),
        quaternion8(),
        symmetric(4),
        alternating(4),
        frobenius21(),
        direct_product(cyclic(2), cyclic(4), name="C2xC4"),
        direct_product(symmetric(3), symmetric(3), name="S3xS3"),
        direct_product(symmetric(3), cyclic(3), name="S3xC3"),
        direct_product(alternating(4), cyclic(3), name="A4xC3"),
        direct_product(dihedral(8), cyclic(2), name="D8xC2"),
    ]
    for q in (3, 4, 5, 7, 8, 9):
        groups.append(affine_group(1, q)[0])
    if len(groups) < 30 or any(g.order > 500 for g in groups):
        raise CovnumError("solvable suite needs at least 30 groups of order <= 500")
    return groups


# batch suites: library keys checked against the registry
SUITES: dict[str, list[str]] = {
    "golden-small": ["V4", "S3", "A5", "S5", "A6", "S6", "PSL27", "PGL27",
                     "AGL13", "AGL14", "AGL15", "AGL17", "AGL18"],
    "affine-small": ["AGL13", "AGL14", "AGL15", "AGL17", "AGL18"],
    "empty": [],
}

"""Permutations on the points 0..n-1.

Composition convention, fixed once for the whole package: products act
left-to-right, so ``(a * b)(x) == b(a(x))`` and ``x ** (a * b) == (x ** a) ** b``.
Text I/O (cycle notation) is 1-based to match the usual group-theory
convention; everything in memory is 0-based. ``take`` is the one way the
package applies an index map to a sequence, here and in the layers above.
"""

from __future__ import annotations

import math
import re
from operator import itemgetter

from .errors import DegreeMismatch, ParseError

_CYCLE_RE = re.compile(r"\(\s*(\d+(?:\s*,\s*\d+)*)?\s*\)")


def take(idx):
    """A callable that maps a sequence to the tuple of its entries at the
    indices ``idx``, in the order of ``idx``: take(idx)(seq) equals
    tuple(seq[i] for i in idx). It is operator.itemgetter(*idx), which reads
    the entries at C speed, except that it returns a tuple for every length
    of idx: itemgetter returns a bare item for one index and cannot be built
    for none. ``idx`` is any sized iterable of indices (or of keys, for a
    mapping); the getter can be applied to many sequences."""
    if len(idx) > 1:
        return itemgetter(*idx)
    if idx:
        (i,) = idx
        return lambda seq: (seq[i],)
    return lambda seq: ()


def _inverse(images: tuple[int, ...]) -> tuple[int, ...]:
    """The image tuple of the inverse permutation. A plain loop: it beats a
    C-speed argsort (sorted with a key) and a dict of the pairs at every
    degree the package meets."""
    inv = [0] * len(images)
    for x, y in enumerate(images):
        inv[y] = x
    return tuple(inv)


def _cycles(images: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Nontrivial cycles of an image tuple, each from its smallest point, sorted."""
    seen = [False] * len(images)
    out = []
    for start, x in enumerate(images):  # a cycle is met first at its smallest point
        if seen[start] or x == start:
            continue
        cycle = [start]
        while x != start:
            cycle.append(x)
            seen[x] = True
            x = images[x]
        out.append(tuple(cycle))
    return out


def _order(images: tuple[int, ...]) -> int:
    """The order of the permutation with these images."""
    return math.lcm(*map(len, _cycles(images)))  # lcm() of nothing is 1


class Permutation:
    """An immutable permutation of {0, .., degree-1}, stored as an image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images!r}")
        self.images = images

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap an image tuple already known to be a permutation (a product,
        inverse or conjugate of permutations), skipping the check in
        __init__."""
        p = cls.__new__(cls)
        p.images = images
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Permutation":
        """Build from 0-based cycles, e.g. ``[(0, 1, 2), (3, 4)]``."""
        images = list(range(degree))
        seen: set[int] = set()
        for cycle in cycles:
            for a, b in zip(cycle, tuple(cycle[1:]) + (cycle[0],)):
                if not 0 <= a < degree:
                    raise ValueError(f"point {a} out of range for degree {degree}")
                if a in seen:
                    raise ValueError(f"point {a} appears twice")
                seen.add(a)
                images[a] = b
        return cls(images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        a, b = self.images, other.images
        if len(a) != len(b):
            raise DegreeMismatch(f"degree {len(a)} vs {len(b)}")
        return Permutation._trusted(take(a)(b))

    def inverse(self) -> "Permutation":
        return Permutation._trusted(_inverse(self.images))

    def __call__(self, point: int) -> int:
        return self.images[point]

    def conjugated_by(self, g: "Permutation") -> "Permutation":
        """Return g^-1 * self * g (left-to-right convention)."""
        inv = g.inverse().images
        return Permutation._trusted(take(take(inv)(self.images))(g.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point, sorted."""
        return _cycles(self.images)

    @property
    def order(self) -> int:
        return _order(self.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"


def format_cycles(p: Permutation) -> str:
    """1-based cycle notation, e.g. ``(1,2,3)(4,5)``; identity prints as ``()``."""
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(x + 1) for x in c) + ")" for c in cycles)


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse 1-based cycle notation at a fixed degree."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty permutation")
    pos = 0
    cycles = []
    while pos < len(stripped):
        if stripped[pos].isspace():
            pos += 1
            continue
        m = _CYCLE_RE.match(stripped, pos)
        if m is None:
            raise ParseError(f"could not parse permutation {text!r}")
        pos = m.end()
        body = m.group(1)
        if body:
            points = [int(t) - 1 for t in body.split(",")]
            if any(not 0 <= x < degree for x in points):
                raise ParseError(f"point out of range 1..{degree} in {text!r}")
            cycles.append(tuple(points))
    try:
        return Permutation.from_cycles(degree, cycles)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc

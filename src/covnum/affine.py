"""Affine groups AGL(n, q) on the points of GF(q)^n, and their explicit
covers by point stabilizers plus direction subgroups.

The cover construction: the q^n point stabilizers catch every affine map
with a fixed point; an affine map v -> vA + b without fixed points has a
linear part fixing some nonzero vector (1 is an eigenvalue of A, else
v(A-1) = -b has a solution), so it lies in the subgroup of maps whose
linear part fixes that line pointwise, translations included. One such
subgroup per line through the origin gives (q^n - 1)/(q - 1) more, for a
total of (q^(n+1) - 1)/(q - 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, CovnumError, OutOfRange
from .groups import PermGroup
from .perms import Permutation
from .subgroups import Subgroup, prime_power

# Reduction rules x^d = <poly in lower powers> for the non-prime sizes we
# construct; coefficients listed for x^0, x^1, ...
_REDUCTIONS = {
    4: (1, 1),
    8: (1, 1, 0),
    9: (2, 0),
    16: (1, 1, 0, 0),
    25: (3, 4),
    27: (2, 1, 0),
}


class GF:
    """Arithmetic in GF(q); elements are ints 0..q-1 encoding base-p digit
    vectors of polynomial coefficients."""

    def __init__(self, q: int):
        self.q = q
        self.p, self.d = prime_power(q)
        if self.d > 1 and q not in _REDUCTIONS:
            raise OutOfRange(f"no reduction polynomial stored for GF({q})")

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.d):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, digits) -> int:
        out = 0
        for c in reversed(list(digits)):
            out = out * self.p + c
        return out

    def add(self, a: int, b: int) -> int:
        if self.d == 1:
            return (a + b) % self.p
        return self._undigits((x + y) % self.p
                              for x, y in zip(self._digits(a), self._digits(b)))

    def neg(self, a: int) -> int:
        if self.d == 1:
            return (-a) % self.p
        return self._undigits((-x) % self.p for x in self._digits(a))

    def mul(self, a: int, b: int) -> int:
        if self.d == 1:
            return (a * b) % self.p
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.d - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        red = _REDUCTIONS[self.q]
        for i in range(len(prod) - 1, self.d - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j, r in enumerate(red):
                    prod[i - self.d + j] = (prod[i - self.d + j] + c * r) % self.p
        return self._undigits(prod[:self.d])

    def primitive_element(self) -> int:
        for a in range(2, self.q):
            x, order = a, 1
            while x != 1:
                x = self.mul(x, a)
                order += 1
            if order == self.q - 1:
                return a
        raise CovnumError(f"GF({self.q}) has no primitive element")


def _gl_order(n: int, q: int) -> int:
    out = 1
    qn = q ** n
    for i in range(n):
        out *= qn - q ** i
    return out


class AffineSpace:
    """GF(q)^n with points indexed 0..q^n - 1 (big-endian coordinates)."""

    def __init__(self, n: int, q: int):
        self.n = n
        self.field = GF(q)
        self.q = q
        self.size = q ** n

    def coords(self, idx: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.n):
            out.append(idx % self.q)
            idx //= self.q
        return tuple(reversed(out))

    def index(self, v) -> int:
        out = 0
        for c in v:
            out = out * self.q + c
        return out

    def add(self, u, v) -> tuple[int, ...]:
        return tuple(self.field.add(a, b) for a, b in zip(u, v))

    def translation(self, t) -> Permutation:
        return Permutation(tuple(self.index(self.add(self.coords(i), t))
                                 for i in range(self.size)))

    def linear(self, rows) -> Permutation:
        """The map v -> v*M for the matrix with the given rows."""
        f = self.field
        images = []
        for i in range(self.size):
            v = self.coords(i)
            out = (0,) * self.n
            for a, row in zip(v, rows):
                if a:
                    out = tuple(f.add(x, f.mul(a, y)) for x, y in zip(out, row))
            images.append(self.index(out))
        return Permutation(tuple(images))

    def basis(self, i: int) -> tuple[int, ...]:
        return tuple(1 if j == i else 0 for j in range(self.n))

    def lines(self) -> list[tuple[int, ...]]:
        """One monic representative per 1-dimensional subspace."""
        reps = []
        for idx in range(1, self.size):
            v = self.coords(idx)
            first = next(c for c in v if c)
            if first == 1:
                reps.append(v)
        if len(reps) != (self.size - 1) // (self.q - 1):
            raise CovnumError(f"found {len(reps)} lines in GF({self.q})^{self.n}")
        return reps


def affine_group(n: int, q: int, max_order: int | None = None) -> tuple[PermGroup, AffineSpace]:
    """AGL(n, q) acting on the q^n vectors; order is checked against the
    closed formula, so a generator bug cannot slip through."""
    space = AffineSpace(n, q)
    f = space.field
    expected = space.size * _gl_order(n, q)
    if max_order is not None and expected > max_order:
        raise BudgetExceeded(f"|AGL({n},{q})| = {expected} exceeds {max_order}")
    gens = [space.translation(space.basis(i)) for i in range(n)]
    alpha = f.primitive_element() if q > 2 else 1
    if n == 1:
        if q > 2:
            gens.append(space.linear([(alpha,)]))
    else:
        if q > 2:
            diag = [[alpha if i == j == 0 else (1 if i == j else 0)
                     for j in range(n)] for i in range(n)]
            gens.append(space.linear(diag))
        cyc = [space.basis((i + 1) % n) for i in range(n)]
        gens.append(space.linear(cyc))
        t_rows = [tuple(f.add(a, b) for a, b in zip(space.basis(0), space.basis(1)))]
        t_rows += [space.basis(i) for i in range(1, n)]
        gens.append(space.linear(t_rows))
    group = PermGroup(space.size, gens, name=f"AGL({n},{q})")
    if group.order != expected:
        raise CovnumError(f"AGL({n},{q}) generated order {group.order}, expected {expected}")
    return group, space


@dataclass(frozen=True)
class AffineCover:
    n: int
    q: int
    point_stabilizers: tuple[Subgroup, ...]
    direction_subgroups: tuple[Subgroup, ...]

    @property
    def total(self) -> int:
        return len(self.point_stabilizers) + len(self.direction_subgroups)

    def subgroups(self) -> list[Subgroup]:
        return list(self.point_stabilizers) + list(self.direction_subgroups)


def agl_cover(n: int, q: int, max_order: int = 100_000) -> AffineCover:
    """The explicit cover of AGL(n, q) from the module docstring, verified
    member-by-member by a direct element scan."""
    group, space = affine_group(n, q, max_order=max_order)
    alg = group.enumeration
    zero = 0  # index of the zero vector
    stabs = []
    for v in range(space.size):
        ids = frozenset(i for i, p in enumerate(alg.elems) if p(v) == v)
        stabs.append(Subgroup(group, ids))
    directions = []
    for w in space.lines():
        w_idx = space.index(w)
        ids = []
        for i, p in enumerate(alg.elems):
            # linear part fixes w  <=>  g(w) = g(0) + w
            shifted = space.index(space.add(space.coords(p(zero)), w))
            if p(w_idx) == shifted:
                ids.append(i)
        directions.append(Subgroup(group, frozenset(ids)))
    cover = AffineCover(n=n, q=q, point_stabilizers=tuple(stabs),
                        direction_subgroups=tuple(directions))
    covered = set()
    for sub in cover.subgroups():
        if sub.order >= group.order:
            raise CovnumError("cover member is not proper")
        covered |= sub.elements
    if len(covered) != group.order:
        raise CovnumError("cover misses elements")
    expected = (q ** (n + 1) - 1) // (q - 1)
    if cover.total != expected:
        raise CovnumError(f"cover has {cover.total} members, expected {expected}")
    return cover

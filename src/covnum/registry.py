"""Known covering numbers: closed-form families, the solvable-group formula,
and a curated registry of published values and bounds.

The registry is data, not code: a versioned TSV shipped with the package.
Each row carries the group name, an exact value or a lo..hi bound pair, the
smallest primitivity degree where meaningful, and a citation string.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from importlib import resources
from math import comb

from .cover import SolveBudget, build_instance, sigma_exact, solve
from .errors import CovnumError, CyclicGroup, OutOfRange, Undecided, Unknown
from .groups import PermGroup
from .subgroups import (
    MaxClassSet,
    algebra,
    all_subgroups,  # not called here: perfbench/workloads.py patches registry.all_subgroups
    chief_series,
    complements,
    coset_action,
    is_solvable,  # not called here: perfbench/workloads.py patches registry.is_solvable
    maximal_classes_computed,
    minimal_normal_subgroups,
    prime_power,
    smallest_prime_factor,
    solvable_series,
)


# ---------------------------------------------------------------------------
# Closed-form families
# ---------------------------------------------------------------------------

def sigma_formula(family: str, *params: int) -> int:
    """Exact covering numbers from the closed-form families.

    Families and validity ranges:
      symmetric n       -- n odd, n != 9: 2^(n-1); n = 6k with k >= 4:
                           C(6k,3k)/2 + sum_{i<2k} C(6k,i)
      alternating n     -- n = 4k+2: 2^(4k)
      psl2 q / pgl2 q   -- q >= 8 even: q(q+1)/2; q > 9 odd: q(q+1)/2 + 1
      suzuki q          -- q = 2^(2m+1) > 2: q^2(q^2+1)/2
      agl n q / asl n q -- n >= 1, n != 2: (q^(n+1)-1)/(q-1)
      solvable p d      -- p prime, d >= 1: p^d + 1 (a group attaining it exists)
    """
    if family == "symmetric":
        (n,) = params
        if n % 2 == 1 and n >= 3 and n != 9:
            return 2 ** (n - 1)
        if n % 6 == 0 and n >= 24:
            k = n // 6
            return comb(6 * k, 3 * k) // 2 + sum(comb(6 * k, i) for i in range(2 * k))
        raise OutOfRange(f"no closed form for S_{n}")
    if family == "alternating":
        (n,) = params
        if n % 4 == 2 and n >= 6:
            return 2 ** (n - 2)
        raise OutOfRange(f"no closed form for A_{n}")
    if family in ("psl2", "pgl2"):
        (q,) = params
        prime_power(q)
        if q >= 8 and q % 2 == 0:
            return q * (q + 1) // 2
        if q > 9 and q % 2 == 1:
            return q * (q + 1) // 2 + 1
        raise OutOfRange(f"{family}({q}): formula holds for q >= 8 even or q > 9 odd")
    if family == "suzuki":
        (q,) = params
        p, d = prime_power(q)
        if p != 2 or d % 2 == 0 or q < 8:
            raise OutOfRange(f"Sz({q}) needs q = 2^(2m+1) > 2")
        return q * q * (q * q + 1) // 2
    if family in ("agl", "asl"):
        n, q = params
        prime_power(q)
        if n < 1 or n == 2:
            raise OutOfRange(
                f"{family}({n},{q}): dimension 2 reduces to psl2 instead")
        return (q ** (n + 1) - 1) // (q - 1)
    if family == "solvable":
        p, d = params
        if p < 2 or smallest_prime_factor(p) != p or d < 1:
            raise OutOfRange("need a prime p and d >= 1")
        return p ** d + 1
    raise OutOfRange(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Solvable groups: smallest multi-complement chief factor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChiefFactorInfo:
    below_order: int
    above_order: int
    factor_order: int
    complement_count: int


def sigma_solvable(group: PermGroup, details: bool = False):
    """Covering number of a noncyclic solvable group: |H/K| + 1 for the
    smallest chief factor H/K with more than one complement.

    C complements H/K when C meets H exactly in K and CH = G. The chief
    factors of a solvable group are abelian, and a complement of an abelian
    chief factor is maximal: for C <= M < G, Dedekind's law gives
    M = C(M meet H); (M meet H)/K is normalized by M and, as H/K is abelian,
    by H, so it is normal in G/K; M < G rules out M meet H = H, so the
    minimality of H/K leaves M meet H = K and M = C (Tomkinson, Math. Scand.
    81, 1997). The complements of each factor are counted by
    subgroups.complements, a depth-first search over tuples of coset
    representatives with one bailing join per prefix and no subgroup
    lattice; BudgetExceeded when that search is over its budget.
    """
    if group.is_cyclic():
        raise CyclicGroup("covering number of a cyclic group is infinite")
    chief = chief_series(group)
    if not solvable_series(chief):
        raise OutOfRange("group is not solvable")
    factors = [ChiefFactorInfo(below_order=below.order,
                               above_order=above.order,
                               factor_order=above.order // below.order,
                               complement_count=len(complements(below, above)))
               for below, above in zip(chief, chief[1:])]
    multi = [f for f in factors if f.complement_count > 1]
    if not multi:
        raise CovnumError("noncyclic solvable group has no multi-complement chief factor")
    best = min(multi, key=lambda f: f.factor_order)
    value = best.factor_order + 1
    if details:
        return value, factors
    return value


# ---------------------------------------------------------------------------
# Sigma-elementary predicate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuotientCheck:
    normal_order: int
    quotient_sigma: int | None  # None means cyclic quotient (infinite)
    verdict: str                # "greater" | "not_greater" | "cyclic"


@dataclass(frozen=True)
class SigmaElementaryReport:
    value: bool
    sigma: int
    checks: tuple[QuotientCheck, ...]


def is_sigma_elementary(group: PermGroup,
                        budget: SolveBudget = SolveBudget(),
                        sigma: int | None = None,
                        quotient_sigma=None,
                        mx: MaxClassSet | None = None) -> SigmaElementaryReport:
    """Whether sigma(G) < sigma(G/N) for every nontrivial normal N.

    Only minimal normal subgroups need checking: sigma of a quotient never
    drops along further quotient maps. G/N is cyclic when some x, 1 or a
    class representative, has |N||<x>| = |G||N meet <x>|. Otherwise sigma(G/N)
    is the least cover of G - N by G's maximal classes containing N (a class
    contains the normal N in all members or none), so each quotient rests on
    the same maximal list as sigma(G): ``mx``, else one computed under the
    budget's lattice cap. No quotient group is built except for the hook
    ``quotient_sigma`` (image group -> exact sigma), kept until perfbench
    stops passing it; given it and ``sigma``, or for a cyclic G, no list is computed.
    """
    if mx is None and (sigma is None or quotient_sigma is None) and not group.is_cyclic():
        mx = maximal_classes_computed(group, budget.lattice_max_order)
    if sigma is None:
        result = sigma_exact(group, budget, mx=mx)
        if not result.optimal:
            raise Undecided("sigma(G) did not close within budget")
        sigma = result.upper
    alg = algebra(group)
    cls = group.conjugacy_classes()
    reps = [alg.index[c.rep.images] for c in cls.classes]
    spans = [alg.closure([x]) for x in [0] + reps]
    checks = []
    for n_sub in minimal_normal_subgroups(group):
        normal = n_sub.elements
        if any(len(normal) * len(s) == group.order * len(s & normal) for s in spans):
            checks.append(QuotientCheck(n_sub.order, None, "cyclic"))
            continue
        if quotient_sigma is not None:
            qsigma = quotient_sigma(coset_action(n_sub)[0])
        else:
            outside = [c.label for c, x in zip(cls.classes, reps) if x not in normal]
            above = [m.label for m in mx.classes if normal <= m.rep.elements]
            qres = solve(build_instance(group, cls, mx, outside, above), budget)
            if not qres.optimal:
                raise Undecided(
                    f"sigma(G/N) for |N| = {n_sub.order} did not close within budget")
            qsigma = qres.upper
        verdict = "greater" if sigma < qsigma else "not_greater"
        checks.append(QuotientCheck(n_sub.order, qsigma, verdict))
    value = all(c.verdict != "not_greater" for c in checks)
    return SigmaElementaryReport(value=value, sigma=sigma, checks=tuple(checks))


# ---------------------------------------------------------------------------
# Registry of published values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KnownEntry:
    name: str
    exact: int | None
    bounds: tuple[int, int | None] | None  # (lo, hi); hi None = open above
    degree: int | None
    citation: str

    def matches(self, value: int) -> bool:
        return self.meets(value, value)

    def meets(self, lower: int, upper: int) -> bool:
        """Whether the bracket [lower, upper] contains a value this entry allows."""
        lo, hi = self.bounds if self.exact is None else (self.exact, self.exact)
        return lo <= upper and (hi is None or lower <= hi)


@cache
def registry() -> dict[str, KnownEntry]:
    text = resources.files("covnum.data").joinpath("registry.tsv").read_text()
    entries: dict[str, KnownEntry] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(f"registry line {lineno}: expected 4 tab-separated fields")
        name, value, degree, citation = parts
        exact = None
        bounds = None
        if ".." in value:
            lo, hi = value.split("..")
            bounds = (int(lo), int(hi) if hi else None)
            if bounds[1] is not None and bounds[0] > bounds[1]:
                raise ValueError(f"registry line {lineno}: bad bounds")
        else:
            exact = int(value)
        entries[name] = KnownEntry(
            name=name,
            exact=exact,
            bounds=bounds,
            degree=None if degree == "-" else int(degree),
            citation=citation,
        )
    return entries


def lookup_known(name: str) -> KnownEntry:
    entry = registry().get(name)
    if entry is None:
        raise Unknown(f"no registry entry for {name!r}")
    return entry

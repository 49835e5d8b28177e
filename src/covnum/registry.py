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

from .cover import SolveBudget, sigma_exact
from .errors import CovnumError, CyclicGroup, OutOfRange, Undecided, Unknown
from .groups import PermGroup
from .subgroups import (
    DEFAULT_LIMITS,
    Limits,
    MaxClassSet,
    all_subgroups,
    coset_action,
    is_solvable,
    minimal_normal_subgroups,
    prime_power,
    smallest_prime_factor,
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


def sigma_solvable(group: PermGroup, limits: Limits = DEFAULT_LIMITS,
                   details: bool = False):
    """Covering number of a noncyclic solvable group: |H/K| + 1 for the
    smallest chief factor H/K with more than one complement.

    Complements are counted by exhaustive scan over the subgroup lattice:
    C complements H/K when C meets H exactly in K and CH = G.
    """
    if group.is_cyclic():
        raise CyclicGroup("covering number of a cyclic group is infinite")
    if not is_solvable(group):
        raise OutOfRange("group is not solvable")
    lattice = all_subgroups(group, limits)
    subs = [s.elements for s in lattice]
    normals = [s.elements for s in lattice if s.is_normal()]
    order = group.order
    # chief series: repeatedly take the smallest normal subgroup properly
    # above the current one with nothing normal strictly between
    series = [frozenset({0})]
    while len(series[-1]) < order:
        current = series[-1]
        above = [s for s in normals if current < s]
        nxt = None
        for cand in above:
            if not any(current < other < cand for other in above):
                nxt = cand
                break
        if nxt is None:
            raise CovnumError(f"chief series stops at order {len(current)}")
        series.append(nxt)
    factors: list[ChiefFactorInfo] = []
    for below, above in zip(series, series[1:]):
        count = 0
        for c in subs:
            if (c & above) == below and len(c) * len(above) == order * len(below):
                count += 1
        factors.append(ChiefFactorInfo(
            below_order=len(below),
            above_order=len(above),
            factor_order=len(above) // len(below),
            complement_count=count,
        ))
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
    quotient_order: int
    quotient_sigma: int | None  # None means cyclic quotient (infinite)
    verdict: str                # "greater" | "not_greater" | "cyclic"


@dataclass(frozen=True)
class SigmaElementaryReport:
    value: bool
    sigma: int
    checks: tuple[QuotientCheck, ...]


def is_sigma_elementary(group: PermGroup,
                        budget: SolveBudget = SolveBudget(),
                        limits: Limits = DEFAULT_LIMITS,
                        sigma: int | None = None,
                        quotient_sigma=None,
                        mx: MaxClassSet | None = None) -> SigmaElementaryReport:
    """Whether sigma(G) < sigma(G/N) for every nontrivial normal N.

    Only minimal normal subgroups need checking: sigma of a quotient never
    drops along further quotient maps. ``quotient_sigma`` may supply a
    callable (image group -> exact sigma) to reuse cached values; the default
    runs the exact solver on each quotient. ``mx`` gives the maximal classes
    of G itself when sigma(G) is to be computed (default: from the lattice).
    """
    if sigma is None:
        result = sigma_exact(group, budget, limits, mx=mx)
        if not result.optimal:
            raise Undecided("sigma(G) did not close within budget")
        sigma = result.upper
    checks = []
    value = True
    for n_sub in minimal_normal_subgroups(group):
        image, _ = coset_action(group, n_sub)
        if image.is_cyclic():
            checks.append(QuotientCheck(n_sub.order, image.order, None, "cyclic"))
            continue
        if quotient_sigma is not None:
            qsigma = quotient_sigma(image)
        else:
            qres = sigma_exact(image, budget, limits)
            if not qres.optimal:
                raise Undecided(
                    f"sigma(G/N) for |N| = {n_sub.order} did not close within budget")
            qsigma = qres.upper
        verdict = "greater" if sigma < qsigma else "not_greater"
        if verdict == "not_greater":
            value = False
        checks.append(QuotientCheck(n_sub.order, image.order, qsigma, verdict))
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
        if self.exact is not None:
            return value == self.exact
        lo, hi = self.bounds
        return lo <= value and (hi is None or value <= hi)


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

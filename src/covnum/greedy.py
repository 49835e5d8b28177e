"""Greedy covering-number bounds and the class-level minimality certificate.

The driver repeatedly picks the element class that needs the most subgroups
from a single maximal class to be covered, takes that whole subgroup class
into the cover, and drops every element class meeting it. The result is a
bracket (lower, upper) plus a certificate flag: when each iteration's class
partitions its elements and the final competitor sum c(M) stays at most 1
for every maximal class outside the cover, the upper bound is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .errors import CyclicGroup, NotACover, Unbounded
from .groups import PermGroup, orbit
from .incidence import IncidenceProfile, incidence_profile
from .subgroups import MaxClassSet


@dataclass(frozen=True)
class GreedyIteration:
    element_class: str
    subgroup_class: str
    best: int
    subgroups_added: int


@dataclass(frozen=True)
class GreedyTrace:
    iterations: tuple[GreedyIteration, ...]
    minlist: tuple[int, ...]
    lower: int
    upper: int
    certified: bool
    mode: str  # "faithful" | "corrected"

    def chosen_subgroup_classes(self) -> list[str]:
        return [it.subgroup_class for it in self.iterations]


@dataclass(frozen=True)
class CertificateReport:
    pi_classes: tuple[str, ...]
    cover_classes: tuple[str, ...]
    c_values: dict[str, Fraction]
    partition_ok: bool
    verdict: str  # "minimal" | "unique_minimal" | "inconclusive"
    cover_size: int = 0


def covering_number_bounds(group: PermGroup, mx: MaxClassSet,
                           mode: str = "corrected") -> GreedyTrace:
    """Greedy bracket (lower, upper, certified) for the covering number.

    In faithful mode the upper bound grows by the chosen subgroup's index,
    exactly as the pseudocode has it; corrected mode adds the class length
    instead, which is the number of subgroups actually taken and is tighter
    when the chosen maximal subgroup is normal. Both are valid upper bounds.
    """
    if mode not in ("faithful", "corrected"):
        raise ValueError(f"unknown mode {mode!r}")
    if group.is_cyclic():
        raise CyclicGroup("cyclic groups have infinite covering number")
    profile = incidence_profile(group, group.conjugacy_classes(), mx)
    return greedy_from_profile(profile, mode)


def greedy_from_profile(profile: IncidenceProfile, mode: str = "corrected") -> GreedyTrace:
    ecs = profile.element_classes
    scs = profile.subgroup_classes
    if not ecs:  # only the trivial group has no nonidentity class
        raise CyclicGroup("a profile with no element classes is the trivial group's, "
                          "which is cyclic")
    remaining = list(range(len(ecs)))
    iterations: list[GreedyIteration] = []
    minlist: list[int] = []
    upper = 0
    per_iteration_ok = True
    while remaining:
        mins = {}
        for j in remaining:
            best_n = max(profile.n(j, i) for i in range(len(scs)))
            if best_n == 0:
                raise Unbounded(
                    f"element class {ecs[j].label} meets no maximal subgroup "
                    f"(cyclic group?)")
            mins[j] = ceil(ecs[j].size / best_n)
        best = max(mins.values())
        x0 = next(j for j in remaining if mins[j] == best)
        n_max = max(profile.n(x0, i) for i in range(len(scs)))
        candidates = [i for i in range(len(scs)) if profile.n(x0, i) == n_max]
        m0 = min(candidates, key=lambda i: (scs[i].class_length, i))
        if mode == "faithful":
            if scs[m0].index is None:
                raise ValueError("faithful mode needs subgroup indices in the profile")
            added = scs[m0].index
        else:
            added = scs[m0].class_length
        if best != added:
            per_iteration_ok = False
        iterations.append(GreedyIteration(
            element_class=ecs[x0].label,
            subgroup_class=scs[m0].label,
            best=best,
            subgroups_added=added,
        ))
        minlist.append(best)
        upper += added
        remaining = [j for j in remaining if profile.n(j, m0) == 0]
    certified = False
    if per_iteration_ok and iterations:
        report = verify_minimal_cover(
            profile,
            pi=[it.element_class for it in iterations],
            cover=[it.subgroup_class for it in iterations],
        )
        certified = report.verdict in ("minimal", "unique_minimal")
    return GreedyTrace(
        iterations=tuple(iterations),
        minlist=tuple(minlist),
        lower=minlist[0],
        upper=upper,
        certified=certified,
        mode=mode,
    )


def verify_minimal_cover(profile: IncidenceProfile, pi, cover) -> CertificateReport:
    """Class-level minimality certificate for a cover of the classes in pi;
    pi and cover are lists of class labels.

    Requires each element class in pi to meet exactly one cover class (its
    assigned class); the verdict is then:

    * ``unique_minimal`` if pi is partitioned among the cover's subgroups and
      every outside maximal class M has c(M) < 1;
    * ``minimal`` if the partition holds and every c(M) <= 1;
    * ``inconclusive`` otherwise.

    c-values are exact rationals. A cover consisting of every maximal class
    leaves no competitors, so the c(M) condition holds vacuously.
    """
    pi_idx = [profile.element_index(lbl) for lbl in pi]
    cover_idx = [profile.subgroup_index(lbl) for lbl in cover]
    if len(set(pi_idx)) != len(pi_idx):
        raise NotACover("repeated pi class")
    if len(set(cover_idx)) != len(cover_idx):
        raise NotACover("repeated cover class")
    for i in cover_idx:
        if all(profile.n(j, i) == 0 for j in pi_idx):
            raise NotACover(
                f"cover class {profile.subgroup_classes[i].label} contains no "
                f"elements of pi")
    assigned: dict[int, int] = {}
    split_class = False
    for j in pi_idx:
        touching = [i for i in cover_idx if profile.n(j, i) > 0]
        if not touching:
            raise NotACover(
                f"element class {profile.element_classes[j].label} meets no "
                f"cover class")
        if len(touching) > 1:
            split_class = True
        assigned[j] = touching[0]
    partition_ok = not split_class and all(
        sum(profile.n(j, i) * profile.subgroup_classes[i].class_length
            for i in cover_idx) == profile.element_classes[j].size
        for j in pi_idx)
    c_values: dict[str, Fraction] = {}
    all_below_one = True
    all_strict = True
    for m in range(len(profile.subgroup_classes)):
        if m in cover_idx:
            continue
        total = Fraction(0)
        for j in pi_idx:
            denom = profile.n(j, assigned[j])
            total += Fraction(profile.n(j, m), denom)
        c_values[profile.subgroup_classes[m].label] = total
        if total > 1:
            all_below_one = False
        if total >= 1:
            all_strict = False
    if partition_ok and all_below_one:
        verdict = "unique_minimal" if all_strict else "minimal"
    else:
        verdict = "inconclusive"
    return CertificateReport(
        pi_classes=tuple(profile.element_classes[j].label for j in pi_idx),
        cover_classes=tuple(profile.subgroup_classes[i].label for i in cover_idx),
        c_values=c_values,
        partition_ok=partition_ok,
        verdict=verdict,
        cover_size=sum(profile.subgroup_classes[i].class_length for i in cover_idx),
    )


@dataclass(frozen=True)
class CountingBound:
    total: int
    per_class: dict[str, int]
    groups: tuple[tuple[str, ...], ...]


def counting_lower_bound(profile: IncidenceProfile,
                         remaining: dict[str, int]) -> CountingBound:
    """Appendix-style counting bound from leftover element counts.

    Each class j with c uncovered elements needs at least ceil(c / n_max)
    subgroups, n_max the best per-subgroup intersection. Classes whose
    supporting subgroup-class sets are disjoint cannot share subgroups, so
    their bounds add; within a connected support component only the maximum
    is sound.
    """
    active = []
    for label, count in remaining.items():
        j = profile.element_index(label)
        if count < 0 or count > profile.element_classes[j].size:
            raise ValueError(f"bad remaining count for {label}")
        if count:
            active.append((j, count))
    per_class: dict[str, int] = {}
    supports: dict[int, frozenset[int]] = {}
    for j, count in active:
        support = frozenset(i for i in range(len(profile.subgroup_classes))
                            if profile.n(j, i) > 0)
        if not support:
            raise Unbounded(
                f"class {profile.element_classes[j].label} meets no subgroup class")
        n_max = max(profile.n(j, i) for i in support)
        per_class[profile.element_classes[j].label] = ceil(count / n_max)
        supports[j] = support
    # group classes whose supports overlap (connected components)
    unvisited = {j for j, _ in active}
    groups: list[tuple[str, ...]] = []
    total = 0
    while unvisited:
        component = orbit(min(unvisited),
                          lambda j: [m for m in supports if supports[j] & supports[m]])
        unvisited.difference_update(component)
        labels = tuple(profile.element_classes[j].label for j in sorted(component))
        groups.append(labels)
        total += max(per_class[lbl] for lbl in labels)
    return CountingBound(total=total, per_class=per_class, groups=tuple(groups))


def render_trace(trace: GreedyTrace) -> str:
    lines = ["iter\telement class\tsubgroup class\tbest\tadded"]
    for t, it in enumerate(trace.iterations, start=1):
        lines.append(f"{t}\t{it.element_class}\t{it.subgroup_class}\t"
                     f"{it.best}\t{it.subgroups_added}")
    lines.append(f"bounds\t{trace.lower} <= sigma <= {trace.upper}\t"
                 f"certified={str(trace.certified).lower()}\tmode={trace.mode}")
    return "\n".join(lines) + "\n"

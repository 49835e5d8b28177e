"""The workloads: seeded set-up, one timed pass, and the correctness gate.

``SETUP[w](seed)`` builds the input texts of workload ``w`` (counted in
``setup_s``); ``PASS[w](state, rec)`` runs one timed pass and checks every
sigma, verdict and bracket it computes against values that do not depend on
the seed. A pass builds its groups from text, so it reuses no object the
package may have cached for another.
"""

from __future__ import annotations

from covnum import cover, library, registry
from covnum.cover import SolveBudget, build_instance, sigma_exact, solve
from covnum.greedy import greedy_from_profile
from covnum.groups import parse_group_file
from covnum.incidence import incidence_profile
from covnum.registry import is_sigma_elementary, lookup_known, sigma_solvable
from covnum.subgroups import all_subgroups, maximal_classes_computed, \
    maximal_classes_from_file

import inputs
from recorder import Recorder, instrument

# Covering numbers (A5xC2: sigma_exact at the seed commit, equal to
# sigma(A5) as sigma(G) <= sigma(G/N) and no smaller cover exists).
GOLDEN_SIGMA = {"A5": 10, "S5": 16, "PSL27": 15, "A6": 16, "PGL27": 29, "S6": 13,
                "AGL32": 15, "M11": 23, "A5xC2": 10}
SIGMA_ELEMENTARY = {"A5": True, "S5": True, "PSL27": True, "A6": True, "PGL27": True,
                    "S6": True, "A5xC2": False, "AGL32": False}
# Subgroup counts, whole lattice including 1 and G (the first five agree with
# the published tables; the rest as computed at the seed commit).
SUBGROUP_COUNTS = {"A5": 59, "S5": 156, "PSL27": 179, "A6": 501, "S6": 1455,
                   "PGL27": 413, "AGL32": 3299, "A5xC2": 164}

EXACT = ("A5", "S5", "PSL27", "A6", "PGL27", "S6", "AGL32", "M11")
STRUCTURE = ("A5", "S5", "PSL27", "A6", "PGL27", "S6", "A5xC2", "AGL32")
BUDGET_KEY = "A6"     # solved again under the node budget below
BUDGET = SolveBudget(max_nodes=2000)
UNSEEDED = ("A6", "M11")   # built and solved again without the greedy seed


def _pipeline(rec: Recorder, name: str, text: str, maximals_text: str | None):
    """The ``covnum exact`` pipeline, call for call, with the greedy cover
    seeding the solver; element enumeration and classes are timed on their
    own before the maximal classes ask for them. Maximal classes are read
    from ``maximals_text`` when given, as the CLI does for M11. Returns the
    group, its classes and maximal classes, the greedy trace and the
    solver's result; the caller checks them."""
    group = rec.call("groups.chain", parse_group_file, text, name=name)
    rec.call("groups.enum", group.elements)
    cls = rec.call("groups.classes", group.conjugacy_classes)
    rec.check(not rec.call("groups.is_cyclic", group.is_cyclic), f"{name} reads as cyclic")
    if maximals_text is None:
        mx = rec.call("subgroups.maximals.computed", maximal_classes_computed, group)
    else:
        mx = rec.call("subgroups.maximals.ingested", maximal_classes_from_file,
                      group, maximals_text)
    profile = rec.call("incidence.profile", incidence_profile, group, cls, mx)
    trace = rec.call("greedy.bounds", greedy_from_profile, profile)
    instance = rec.call("cover.build", build_instance, group, cls, mx)
    wanted = {mx.by_label(label) for label in trace.chosen_subgroup_classes()}
    initial = [c for c, k in enumerate(instance.column_class) if k in wanted]
    result = rec.call("cover.solve", solve, instance, SolveBudget(), initial_cover=initial)
    _count_solve(rec, instance, result)
    return group, cls, mx, trace, instance, initial, result


def _check_sigma(rec: Recorder, name: str, sigma: int, trace, result) -> None:
    rec.check(trace.lower <= sigma <= trace.upper,
              f"{name}: greedy bracket [{trace.lower}, {trace.upper}] misses {sigma}")
    rec.check(not trace.certified or trace.upper == sigma,
              f"{name}: greedy certified {trace.upper}, sigma is {sigma}")
    rec.check(result.optimal and result.upper == sigma,
              f"{name}: solve gave {result.upper} (optimal={result.optimal}), "
              f"sigma is {sigma}")


def _unseeded(rec: Recorder, key: str, group, cls, mx) -> None:
    """The ``sigma_exact`` route without a greedy seed: a fresh instance
    solved from scratch, so the search alone must find the cover."""
    instance = rec.call("cover.build", build_instance, group, cls, mx)
    result = rec.call("cover.solve", solve, instance, SolveBudget())
    _count_solve(rec, instance, result)
    rec.check(result.optimal and result.upper == GOLDEN_SIGMA[key],
              f"{key}: unseeded solve gave {result.upper} "
              f"(optimal={result.optimal}), sigma is {GOLDEN_SIGMA[key]}")


def _budget_cut(rec: Recorder, key: str, instance, initial) -> None:
    """The same solve cut at a node budget, as ``--max-nodes`` users run it:
    the bracket must contain sigma."""
    result = rec.call("cover.solve", solve, instance, BUDGET, initial_cover=initial)
    _count_solve(rec, instance, result)
    sigma = GOLDEN_SIGMA[key]
    rec.check(result.lower <= sigma <= result.upper,
              f"{key}: budget bracket [{result.lower}, {result.upper}] misses {sigma}")
    rec.check(not result.optimal or result.upper == sigma,
              f"{key}: budget run claims optimal {result.upper}")


def _count_solve(rec: Recorder, instance, result) -> None:
    rec.count("cover.nodes", result.nodes_explored)
    rec.count("cover.universe", instance.universe_size)
    rec.count("cover.columns", len(instance.column_masks))


def _instrument(rec: Recorder) -> None:
    """In a traced pass, give spans to the calls that registry and cover make
    into other layers through names they imported."""
    if rec.spans is None:
        return
    instrument(rec, registry, "all_subgroups", "subgroups.lattice")
    instrument(rec, registry, "minimal_normal_subgroups", "subgroups.normal")
    instrument(rec, registry, "coset_action", "subgroups.coset_action")
    instrument(rec, registry, "is_solvable", "subgroups.is_solvable")
    instrument(rec, cover, "maximal_classes_computed", "subgroups.maximals.computed")
    instrument(rec, cover, "build_instance", "cover.build",
               lambda inst: {"cover.universe": inst.universe_size,
                             "cover.columns": len(inst.column_masks)})
    instrument(rec, cover, "solve", "cover.solve",
               lambda result: {"cover.nodes": result.nodes_explored})


# -- exact: covnum exact on the library groups; the lattice dominates -------

def setup_exact(seed: int):
    return [(key, library.entry(key).registry_name, *inputs.library_text(key, seed))
            for key in EXACT]


def pass_exact(state, rec: Recorder) -> None:
    _instrument(rec)
    for key, registry_name, text, maximals_text in state:
        failed = len(rec.failures)
        with rec.item(key):
            group, cls, mx, trace, instance, initial, result = \
                _pipeline(rec, key, text, maximals_text)
            _check_sigma(rec, key, GOLDEN_SIGMA[key], trace, result)
            # the published value, as covnum batch checks it
            known = rec.call("registry.lookup_known", lookup_known, registry_name)
            rec.check(known.matches(result.upper),
                      f"{key}: sigma {result.upper}, registry has {known}")
        if len(rec.failures) > failed:
            continue   # the items below reuse this item's results
        if key == BUDGET_KEY:
            with rec.item(f"{key}:budget"):
                _budget_cut(rec, key, instance, initial)
        if key in UNSEEDED:
            with rec.item(f"{key}:unseeded"):
                _unseeded(rec, key, group, cls, mx)


# -- structure: the whole lattice, quotients and the solvable formula --------

def setup_structure(seed: int):
    groups = [(key, inputs.library_text(key, seed)[0]) for key in STRUCTURE]
    return groups, inputs.solvable_texts(seed)


def _prime_power_plus_one(value: int) -> bool:
    base = value - 1
    if base < 2:
        return False
    p = 2
    while base % p:
        p += 1
    while base % p == 0:
        base //= p
    return base == 1


def pass_structure(state, rec: Recorder) -> None:
    _instrument(rec)
    groups, solvable = state

    def quotient_sigma(image):
        result = rec.call("cover.sigma_exact", sigma_exact, image)
        rec.check(result.optimal, f"sigma of a quotient of order {image.order} "
                                  f"did not close")
        return result.upper

    for key, text in groups:
        with rec.item(key):
            group = rec.call("groups.chain", parse_group_file, text, name=key)
            rec.call("groups.enum", group.elements)
            rec.call("groups.classes", group.conjugacy_classes)
            subs = rec.call("subgroups.lattice", all_subgroups, group)
            rec.check(len(subs) == SUBGROUP_COUNTS[key],
                      f"{key}: {len(subs)} subgroups, expected {SUBGROUP_COUNTS[key]}")
            sigma = GOLDEN_SIGMA[key]
            report = rec.call("registry.sigma_elementary", is_sigma_elementary, group,
                              sigma=sigma, quotient_sigma=quotient_sigma)
            rec.check(report.value == SIGMA_ELEMENTARY[key],
                      f"{key}: sigma-elementary {report.value}, "
                      f"expected {SIGMA_ELEMENTARY[key]}")
            rec.check(all(c.quotient_sigma is None or c.quotient_sigma >= sigma
                          for c in report.checks),
                      f"{key}: a quotient has smaller sigma than the group")
    for name, text in solvable:
        with rec.item(f"solvable:{name}"):
            # the chief-factor formula against covnum exact on the same group
            group, _, _, trace, _, _, result = _pipeline(rec, name, text, None)
            value = rec.call("registry.solvable", sigma_solvable, group)
            rec.check(_prime_power_plus_one(value), f"{name}: {value} is not p^d + 1")
            _check_sigma(rec, name, value, trace, result)


SETUP = {"exact": setup_exact, "structure": setup_structure}
PASS = {"exact": pass_exact, "structure": pass_structure}

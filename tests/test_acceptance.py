"""Acceptance suite: the release-gating checks, one test per criterion.

Each test prints a single ``criterion N: PASS`` line with its measured
numbers (run ``pytest -s tests/test_acceptance.py`` to see them live).
Budgeted searches are allowed to time out only where the criterion says a
bracket is acceptable; a wrong exact value always fails.
"""

from __future__ import annotations

import time
from math import ceil

from oracle import exhaustive_sigma

from covnum import library
from covnum.affine import affine_group, agl_cover
from covnum.cover import SolveBudget, sigma_exact
from covnum.greedy import counting_lower_bound, covering_number_bounds, \
    verify_minimal_cover
from covnum.incidence import parse_profile
from covnum.registry import is_sigma_elementary, sigma_solvable
from covnum.subgroups import all_subgroups, coset_action, normal_subgroups

TEN_MINUTES = SolveBudget(max_nodes=50_000_000, time_limit=600.0)

GOLDEN = [
    ("V4", 3), ("S3", 4), ("A5", 10), ("A6", 16), ("S5", 16), ("S6", 13),
    ("PSL27", 15), ("PGL27", 29),
    ("AGL13", 4), ("AGL14", 5), ("AGL15", 6), ("AGL17", 8), ("AGL18", 9),
]


def _report(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS  [{detail}]")


def test_criterion_01_golden_exact_values():
    times = []
    for key, expected in GOLDEN:
        t0 = time.monotonic()
        group = library.group(key)
        mx = library.maximals(key)
        result = sigma_exact(group, mx=mx)
        dt = time.monotonic() - t0
        assert result.optimal, f"{key} did not close"
        assert result.upper == expected, f"sigma({key}) = {result.upper} != {expected}"
        assert dt < 60.0, f"{key} took {dt:.1f}s, over the 60s target"
        times.append(f"{key}={result.upper} ({dt:.1f}s)")
    _report(1, "; ".join(times))


def test_criterion_02_m11():
    group = library.group("M11")
    mx = library.maximals("M11")
    trace = covering_number_bounds(group, mx)
    assert trace.lower <= 23 <= trace.upper, (trace.lower, trace.upper)
    result = sigma_exact(group, TEN_MINUTES, mx=mx)
    if result.optimal:
        assert result.upper == 23, f"wrong exact value {result.upper}"
        closing = f"closed at {result.upper} in {result.nodes_explored} nodes"
    else:
        assert result.budget_exhausted
        assert result.lower <= 23 <= result.upper
        closing = f"bracket [{result.lower}, {result.upper}] after budget"
    _report(2, f"greedy ({trace.lower}, {trace.upper}, "
               f"certified={trace.certified}); exact {closing}")


def test_criterion_03_greedy_trace_regression():
    a5 = library.group("A5")
    mxa = library.maximals("A5")
    for mode in ("faithful", "corrected"):
        trace = covering_number_bounds(a5, mxa, mode)
        assert (trace.lower, trace.upper, trace.certified) == (6, 11, False), mode
    v4 = library.group("V4")
    mxv = library.maximals("V4")
    assert covering_number_bounds(v4, mxv, "faithful").upper == 6
    corrected = covering_number_bounds(v4, mxv, "corrected")
    assert corrected.upper == 3 and corrected.certified
    _report(3, "A5 (6, 11, false) both modes; V4 u=6 faithful / u=3 corrected")


def test_criterion_04_certificate_fixture(data_dir):
    profile = parse_profile((data_dir / "psl274_profile.tsv").read_text())
    report = verify_minimal_cover(profile, ["cl_24", "cl_16"], ["M1", "M3"])
    assert report.verdict == "unique_minimal"
    assert report.partition_ok
    assert all(value == 0 for value in report.c_values.values())
    _report(4, f"verdict {report.verdict}, cover of {report.cover_size} subgroups, "
               f"all competitor c(M) = 0")


def test_criterion_05_tomkinson_cross_check():
    suite = library.solvable_suite()
    assert len(suite) >= 30
    checked = []
    for group in suite:
        formula = sigma_solvable(group)
        exact = sigma_exact(group)
        assert exact.optimal
        assert formula == exact.upper, (group.name, formula, exact.upper)
        base = formula - 1  # must be a positive prime power
        p = 2
        while p * p <= base and base % p:
            p += 1
        p = p if base % p == 0 else base
        while base % p == 0:
            base //= p
        assert base == 1, f"{group.name}: {formula} is not p^d + 1"
        checked.append(group.name)
    _report(5, f"{len(checked)} solvable groups of order <= 500, formula = exact "
               f"and every value p^d + 1")


def test_criterion_06_affine_cover_and_agl32():
    sizes = []
    for n, q in [(1, 4), (1, 5), (1, 7), (3, 2)]:
        cover = agl_cover(n, q)  # construction verifies coverage element-wise
        expected = (q ** (n + 1) - 1) // (q - 1)
        assert cover.total == expected
        sizes.append(f"AGL({n},{q})={cover.total}")
    group, _ = affine_group(3, 2)
    result = sigma_exact(group, TEN_MINUTES)
    if result.optimal:
        assert result.upper == 15, f"wrong exact value {result.upper}"
        closing = "no 14-subgroup cover exists; sigma = 15"
    else:
        assert result.budget_exhausted
        assert result.lower <= 15 <= result.upper
        closing = f"bracket [{result.lower}, {result.upper}] after budget"
    _report(6, "; ".join(sizes) + "; " + closing)


def test_criterion_07_oracle_equivalence(sigma_of):
    checked_maximal = []
    checked_proper = []
    for key in library.names():
        group = library.group(key)
        if group.order > 360 or group.is_cyclic():
            continue
        mx = library.maximals(key)
        columns = [member for cls in mx.classes for member in cls.members]
        value = sigma_of(key)
        oracle = exhaustive_sigma(set(range(1, group.order)), columns, value + 1)
        assert oracle == value, (key, oracle, value)
        checked_maximal.append(key)
        if group.order <= 60:
            proper = [s.elements for s in all_subgroups(group)
                      if 1 < s.order < group.order]
            oracle_all = exhaustive_sigma(set(range(1, group.order)), proper, value + 1)
            assert oracle_all == value, (key, oracle_all, value)
            checked_proper.append(key)
    assert len(checked_maximal) >= 15
    assert len(checked_proper) >= 8
    _report(7, f"maximal-column oracle on {len(checked_maximal)} groups <= 360; "
               f"all-proper-subgroup oracle agrees on {len(checked_proper)} "
               f"groups <= 60")


def test_criterion_08_quotient_monotonicity(sigma_of):
    pairs = 0
    cyclic_quotients = 0
    named = [(key, library.group(key), lambda key=key: sigma_of(key))
             for key in library.names()]
    extra = [(g.name, g, None) for g in library.solvable_suite()]
    for key, group, cached in named + extra:
        if group.is_cyclic():
            continue
        proper = [sub for sub in normal_subgroups(group)
                  if sub.order not in (1, group.order)]
        if not proper:
            continue  # simple: no quotient to compare
        if cached is not None:
            sigma = cached()
        else:
            own = sigma_exact(group)
            assert own.optimal
            sigma = own.upper
        for sub in proper:
            image, _ = coset_action(sub)
            if image.is_cyclic():
                cyclic_quotients += 1  # sigma(G/N) infinite, inequality trivial
                continue
            result = sigma_exact(image)
            assert result.optimal
            assert sigma <= result.upper, (key, sub.order, sigma, result.upper)
            pairs += 1
    assert pairs >= 25
    _report(8, f"sigma(G) <= sigma(G/N) on {pairs} noncyclic quotients "
               f"(+{cyclic_quotients} cyclic quotients, trivially satisfied)")


def test_criterion_09_sigma_elementary_verdicts(sigma_of):
    verdicts = {}
    for key in ["A5", "S5", "S6", "A6", "PSL27", "PGL27", "M11",
                "D8", "S4", "A5xC2"]:
        budget = TEN_MINUTES if key == "M11" else SolveBudget()
        report = is_sigma_elementary(library.group(key), budget, sigma=sigma_of(key, budget),
                                     mx=library.maximals(key))
        verdicts[key] = report.value
    for key in ["A5", "S5", "S6", "A6", "PSL27", "PGL27", "M11"]:
        assert verdicts[key] is True, key
    for key in ["D8", "S4", "A5xC2"]:
        assert verdicts[key] is False, key
    _report(9, "true: A5 S5 S6 A6 PSL(2,7) PGL(2,7) M11; false: D8 S4 A5xC2")


def test_criterion_10_counting_bound_fixture(data_dir):
    profile = parse_profile((data_dir / "ominus82_profile.tsv").read_text())
    sizes = {ec.label: ec.size for ec in profile.element_classes}
    remaining = {lbl: sizes[lbl] for lbl in ("cl_17", "cl_30", "cl_21", "cl_9")}
    bound = counting_lower_bound(profile, remaining)
    assert bound.per_class["cl_17"] == 24192
    assert bound.per_class["cl_30"] == 1071
    assert bound.per_class["cl_21"] == ceil(765 / 2) == 383
    assert bound.per_class["cl_9"] == ceil(119 / 2) == 60
    assert len(bound.groups) == 4  # supports pairwise disjoint: bounds add
    assert bound.total == 25706
    _report(10, "24192 + 1071 + 383 + 60 = 25706 from the stored table alone")

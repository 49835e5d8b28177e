"""Command-line front end.

Commands: bounds, exact, verify, table, sigma-elementary, batch, known.
Groups come from the built-in library (--library) or from a group file
(--file, optionally with --maximals for ingested maximal subgroups). Every
printed value carries its provenance: computed here, ingested (from maximal
subgroups read from a file), or registry(citation).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import library
from .cover import SolveBudget, build_instance, format_instance, format_lp, sigma_exact
from .errors import CapExceeded, CovnumError
from .greedy import covering_number_bounds, render_trace, verify_minimal_cover
from .groups import ENUM_CAP, PermGroup, parse_group_file
from .incidence import incidence_profile, parse_profile, render_profile
from .registry import is_sigma_elementary, lookup_known
from .subgroups import Limits, MaxClassSet, maximal_classes_computed, \
    maximal_classes_from_file


@dataclass
class RunReport:
    group_name: str
    order: int
    method: str                      # greedy | exact | formula | registry
    result: int | tuple[int, int]    # exact sigma, or (lo, hi)
    certified: bool = False
    wall_time: float = 0.0
    provenance: str = "computed"
    note: str = ""

    def result_text(self) -> str:
        if isinstance(self.result, tuple):
            return f"{self.result[0]}..{self.result[1]}"
        return str(self.result)


def _render_reports(reports: list[RunReport], fmt: str) -> str:
    if fmt == "records":
        lines = []
        for r in reports:
            parts = [f"group={r.group_name}", f"order={r.order}", f"method={r.method}",
                     f"sigma={r.result_text()}", f"certified={str(r.certified).lower()}",
                     f"provenance={r.provenance}", f"time={r.wall_time:.2f}s"]
            if r.note:
                parts.append(f"note={r.note}")
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"
    header = f"{'group':<14}{'order':>8}  {'method':<8}{'sigma':>12}  " \
             f"{'certified':<10}{'provenance':<24}{'time':>8}  note"
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(
            f"{r.group_name:<14}{r.order:>8}  {r.method:<8}{r.result_text():>12}  "
            f"{str(r.certified).lower():<10}{r.provenance:<24}{r.wall_time:>7.2f}s  {r.note}")
    return "\n".join(lines) + "\n"


def _add_group_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--library", help="built-in group name "
                   f"({', '.join(library.names())})")
    p.add_argument("--file", help="group file: 'degree n' then cycle-notation generators")
    p.add_argument("--maximals", help="maximal-subgroup ingestion file")
    p.add_argument("--max-order", type=int, default=ENUM_CAP,
                   help="largest group order, checked when the group is loaded; "
                        "it can lower the 1e6 enumeration cap but not raise it")
    p.add_argument("--max-lattice", type=int, default=5000,
                   help="largest order for full lattice enumeration (default 5000)")


def _limits(args) -> Limits:
    return Limits(lattice_max_order=args.max_lattice)


def _load_group(args) -> tuple[PermGroup, MaxClassSet | None]:
    if bool(args.library) == bool(args.file):
        raise CovnumError("give exactly one of --library or --file")
    if args.library:
        group = library.group(args.library)
    else:
        group = parse_group_file(Path(args.file).read_text(), name=Path(args.file).stem)
    if group.order > args.max_order:
        raise CapExceeded(f"group order {group.order} exceeds --max-order {args.max_order}")
    if args.maximals:
        mx = maximal_classes_from_file(group, Path(args.maximals).read_text())
    elif args.library and library.entry(args.library).maximals_file:
        mx = library.maximals(args.library)
    else:
        mx = None
    return group, mx


def _maximals_for(group: PermGroup, mx: MaxClassSet | None, args) -> MaxClassSet:
    if mx is not None:
        return mx
    return maximal_classes_computed(group, _limits(args))


def cmd_bounds(args) -> int:
    t0 = time.monotonic()
    group, mx = _load_group(args)
    mx = _maximals_for(group, mx, args)
    trace = covering_number_bounds(group, mx, args.mode)
    dt = time.monotonic() - t0
    sys.stdout.write(render_trace(trace))
    report = RunReport(
        group_name=group.name or "?", order=group.order, method="greedy",
        result=(trace.lower, trace.upper), certified=trace.certified, wall_time=dt,
        provenance=mx.provenance)
    sys.stdout.write(_render_reports([report], args.format))
    return 0


def cmd_exact(args) -> int:
    t0 = time.monotonic()
    group, mx = _load_group(args)
    mx = _maximals_for(group, mx, args)
    budget = SolveBudget(max_nodes=args.max_nodes, time_limit=args.time_limit)
    elts = args.classes or None
    subs = args.subgroup_classes or None
    if elts is None and subs is None:
        result = sigma_exact(group, budget, _limits(args), mx=mx)
    else:
        instance = build_instance(group, group.conjugacy_classes(), mx, elts=elts, subs=subs)
        if args.write_lp:
            Path(args.write_lp).write_text(format_lp(instance, group.name or "G"))
        if args.write_instance:
            Path(args.write_instance).write_text(format_instance(instance))
        from .cover import solve
        result = solve(instance, budget)
    dt = time.monotonic() - t0
    note = ""
    if result.budget_exhausted:
        note = "budget exhausted (--max-nodes/--time-limit); bounds remain valid"
    report = RunReport(
        group_name=group.name or "?", order=group.order, method="exact",
        result=result.upper if result.optimal else (result.lower, result.upper),
        certified=result.optimal, wall_time=dt, provenance=mx.provenance, note=note)
    sys.stdout.write(_render_reports([report], args.format))
    return 0


def cmd_verify(args) -> int:
    if args.profile:
        profile = parse_profile(Path(args.profile).read_text())
        name = Path(args.profile).stem
    else:
        group, mx = _load_group(args)
        mx = _maximals_for(group, mx, args)
        profile = incidence_profile(group, group.conjugacy_classes(), mx)
        name = group.name or "?"
    report = verify_minimal_cover(profile, args.pi, args.cover)
    print(f"group/profile: {name}")
    print(f"pi: {', '.join(report.pi_classes)}")
    print(f"cover: {', '.join(report.cover_classes)} ({report.cover_size} subgroups)")
    print(f"partition: {str(report.partition_ok).lower()}")
    for label, value in sorted(report.c_values.items()):
        print(f"c({label}) = {value}")
    print(f"verdict: {report.verdict}")
    return 0 if report.verdict != "inconclusive" else 1


def cmd_table(args) -> int:
    if args.profile:
        profile = parse_profile(Path(args.profile).read_text())
    else:
        group, mx = _load_group(args)
        mx = _maximals_for(group, mx, args)
        profile = incidence_profile(group, group.conjugacy_classes(), mx)
    sys.stdout.write(render_profile(profile))
    return 0


def cmd_sigma_elementary(args) -> int:
    group, mx = _load_group(args)
    budget = SolveBudget(max_nodes=args.max_nodes, time_limit=args.time_limit)
    report = is_sigma_elementary(group, budget, _limits(args), mx=mx)
    print(f"group: {group.name or '?'} (order {group.order}), sigma = {report.sigma}")
    for chk in report.checks:
        quotient = "infinite (cyclic quotient)" if chk.quotient_sigma is None \
            else str(chk.quotient_sigma)
        print(f"  |N| = {chk.normal_order}: sigma(G/N) = {quotient} -> {chk.verdict}")
    print(f"sigma-elementary: {str(report.value).lower()}")
    return 0


def cmd_batch(args) -> int:
    keys = library.SUITES.get(args.suite)
    if args.suite == "solvable-oracle":
        return _batch_solvable(args)
    if keys is None:
        names = sorted(set(library.SUITES) | {"solvable-oracle"})
        raise CovnumError(f"unknown suite {args.suite!r} (known: {', '.join(names)})")
    reports: list[RunReport] = []
    failures = 0
    budget = SolveBudget(max_nodes=args.max_nodes, time_limit=args.time_limit)
    for key in keys:
        t0 = time.monotonic()
        try:
            group = library.group(key)
            mx = library.maximals(key)
            result = sigma_exact(group, budget, mx=mx)
            dt = time.monotonic() - t0
            entry = library.entry(key)
            if entry.registry_name:
                known = lookup_known(entry.registry_name)
                ok = result.optimal and known.matches(result.upper)
                note = "" if ok else f"MISMATCH vs registry {known.exact or known.bounds}"
                provenance = f"registry({known.citation})"
            else:
                ok, note, provenance = result.optimal, "", "computed"
            if not ok:
                failures += 1
            reports.append(RunReport(
                group_name=key, order=group.order, method="exact",
                result=result.upper if result.optimal else (result.lower, result.upper),
                certified=result.optimal, wall_time=dt,
                provenance=provenance, note=note or ("ok" if ok else "")))
        except CovnumError as exc:
            failures += 1
            reports.append(RunReport(group_name=key, order=0, method="exact",
                                     result=(0, 0), note=f"error: {exc}"))
    sys.stdout.write(_render_reports(reports, args.format))
    print(f"{len(reports) - failures}/{len(reports)} passed")
    return 1 if failures else 0


def _batch_solvable(args) -> int:
    from .registry import sigma_solvable
    reports = []
    failures = 0
    for group in library.solvable_suite():
        t0 = time.monotonic()
        formula = sigma_solvable(group)
        exact = sigma_exact(group)
        dt = time.monotonic() - t0
        ok = exact.optimal and exact.upper == formula
        if not ok:
            failures += 1
        reports.append(RunReport(
            group_name=group.name or "?", order=group.order, method="formula",
            result=formula, certified=ok, wall_time=dt,
            note="ok" if ok else f"MISMATCH exact={exact.upper}"))
    sys.stdout.write(_render_reports(reports, args.format))
    print(f"{len(reports) - failures}/{len(reports)} passed")
    return 1 if failures else 0


def cmd_known(args) -> int:
    entry = lookup_known(args.name)
    result = entry.exact if entry.exact is not None else \
        (entry.bounds[0], entry.bounds[1] if entry.bounds[1] is not None else -1)
    if entry.exact is not None:
        text = str(entry.exact)
    elif entry.bounds[1] is None:
        text = f">= {entry.bounds[0]}"
    else:
        text = f"{entry.bounds[0]}..{entry.bounds[1]}"
    degree = entry.degree if entry.degree is not None else "-"
    print(f"{entry.name}\tsigma {text}\tdegree {degree}\tregistry({entry.citation})")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covnum",
        description="Covering numbers of finite permutation groups: greedy "
                    "bounds, minimality certificates, exact set-cover search.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budgets=True):
        _add_group_args(p)
        p.add_argument("--format", choices=("human", "records"), default="human")
        if budgets:
            p.add_argument("--max-nodes", type=int, default=5_000_000)
            p.add_argument("--time-limit", type=float, default=None,
                           help="seconds for the exact search (default: none)")

    p = sub.add_parser("bounds", help="greedy lower/upper bounds with certificate")
    common(p, budgets=False)
    p.add_argument("--mode", choices=("corrected", "faithful"), default="corrected")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("exact", help="exact covering number by branch and bound")
    common(p)
    p.add_argument("--classes", nargs="+", help="element-class labels, e.g. cl_7,1 cl_7,2")
    p.add_argument("--subgroup-classes", nargs="+", help="subgroup-class labels, e.g. M1 M3")
    p.add_argument("--write-lp", help="also write the instance as an .lp file")
    p.add_argument("--write-instance", help="also write the portable instance text")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("verify", help="minimality certificate for a chosen pi/cover")
    common(p, budgets=False)
    p.add_argument("--profile", help="stored profile table instead of a group")
    p.add_argument("--pi", nargs="+", required=True, help="element-class labels")
    p.add_argument("--cover", nargs="+", required=True, help="subgroup-class labels")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="element-distribution table")
    common(p, budgets=False)
    p.add_argument("--profile", help="replay a stored profile table")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("sigma-elementary", help="test sigma(G) < sigma(G/N) for all N")
    common(p)
    p.set_defaults(func=cmd_sigma_elementary)

    p = sub.add_parser("batch", help="run a named suite against the registry")
    p.add_argument("suite")
    p.add_argument("--format", choices=("human", "records"), default="human")
    p.add_argument("--max-nodes", type=int, default=5_000_000)
    p.add_argument("--time-limit", type=float, default=None)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("known", help="look up a registry value")
    p.add_argument("name")
    p.set_defaults(func=cmd_known)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CovnumError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

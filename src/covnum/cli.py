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
from .cover import CoverResult, SolveBudget, build_instance, format_instance, format_lp, solve
from .errors import CapExceeded, CovnumError, CyclicGroup
from .greedy import covering_number_bounds, render_trace, verify_minimal_cover
from .groups import ENUM_CAP, PermGroup, parse_group_file
from .incidence import IncidenceProfile, incidence_profile, parse_profile, render_profile
from .registry import is_sigma_elementary, lookup_known, sigma_solvable
from .subgroups import LATTICE_MAX_ORDER, maximal_classes_computed, maximal_classes_from_file

BUDGET_NOTE = "budget exhausted (--max-nodes/--time-limit); bounds remain valid"


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
    width = max([24] + [len(r.provenance) for r in reports])
    header = f"{'group':<14}{'order':>8}  {'method':<8}{'sigma':>12}  " \
             f"{'certified':<10}{'provenance':<{width}}{'time':>8}  note"
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(
            f"{r.group_name:<14}{r.order:>8}  {r.method:<8}{r.result_text():>12}  "
            f"{str(r.certified).lower():<10}{r.provenance:<{width}}{r.wall_time:>7.2f}s  {r.note}")
    return "\n".join(lines) + "\n"


def _add_group_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--library", help="built-in group name "
                   f"({', '.join(library.names())})")
    p.add_argument("--file", help="group file: 'degree n' then cycle-notation generators")
    p.add_argument("--maximals", help="maximal-subgroup ingestion file")
    p.add_argument("--max-order", type=int, default=ENUM_CAP,
                   help="largest group order, checked when the group is loaded; "
                        "it can lower the 1e6 enumeration cap but not raise it")
    p.add_argument("--max-lattice", type=int, default=LATTICE_MAX_ORDER,
                   help="largest order for full lattice enumeration "
                        f"(default {LATTICE_MAX_ORDER})")


class _Run:
    """One group command, timed from its start: the budget, checked here;
    the group and its maximal classes; the exact stage; and the report row.
    A batch restarts the run on each of its rows."""

    def __init__(self, args):
        self.args, self.start, self.budget = args, time.monotonic(), None
        if hasattr(args, "max_nodes"):
            if args.max_nodes < 0:
                raise CovnumError(f"--max-nodes must be nonnegative, got {args.max_nodes}")
            if args.time_limit is not None and not args.time_limit >= 0:  # NaN too
                raise CovnumError(f"--time-limit must be nonnegative, got {args.time_limit}")
            # batch has no --max-lattice and keeps the default lattice cap
            self.budget = SolveBudget(
                max_nodes=args.max_nodes, time_limit=args.time_limit,
                lattice_max_order=getattr(args, "max_lattice", LATTICE_MAX_ORDER))

    def load(self, cyclic_ok: bool = False) -> "_Run":
        """The group and its maximal classes: ingested from --maximals or the
        library's bundled file (maximal_classes_from_file decides what that
        list is checked against), otherwise computed within --max-lattice. A
        cyclic group is rejected before its list is read unless ``cyclic_ok``."""
        args = self.args
        if bool(args.library) == bool(args.file):
            raise CovnumError("give exactly one of --library or --file")
        if args.library:
            group = library.group(args.library)
        else:
            group = parse_group_file(Path(args.file).read_text(), name=Path(args.file).stem)
        if group.order > args.max_order:
            raise CapExceeded(f"group order {group.order} exceeds --max-order {args.max_order}")
        if not cyclic_ok and group.is_cyclic():
            raise CyclicGroup("cyclic groups have infinite covering number")
        self.name, self.group = group.name or "?", group
        if args.maximals:
            self.mx = maximal_classes_from_file(group, Path(args.maximals).read_text(),
                                                args.max_lattice)
        elif args.library and library.entry(args.library).maximals_file:
            self.mx = library.maximals(args.library, args.max_lattice)
        else:
            self.mx = maximal_classes_computed(group, args.max_lattice)
        return self

    def load_row(self, name: str, group: PermGroup | None) -> None:
        """A batch row, timed from here: the library group ``name`` with the
        library's list, or a solvable-oracle ``group`` with its list computed,
        both under the budget's lattice cap."""
        self.start, cap = time.monotonic(), self.budget.lattice_max_order
        self.name, self.group = name, group or library.group(name)
        self.mx = library.maximals(name, cap) if group is None \
            else maximal_classes_computed(group, cap)

    def exact(self) -> CoverResult:
        """Build the instance, on --classes/--subgroup-classes when given,
        write it on --write-lp/--write-instance, and solve it under the budget."""
        group, opts = self.group, vars(self.args)
        instance = build_instance(group, group.conjugacy_classes(), self.mx,
                                  elts=opts.get("classes"), subs=opts.get("subgroup_classes"))
        if opts.get("write_lp"):
            Path(opts["write_lp"]).write_text(format_lp(instance, group.name or "G"))
        if opts.get("write_instance"):
            Path(opts["write_instance"]).write_text(format_instance(instance))
        return solve(instance, self.budget)

    def report(self, method: str, outcome, note: str = "", provenance: str = "") -> RunReport:
        """The run's report row, timed from its start. A cover result is sigma
        once it closes and its bracket otherwise; a greedy trace is its
        bracket; a formula value is certified by an 'ok' note."""
        if isinstance(outcome, CoverResult):
            certified = outcome.optimal
            result = outcome.upper if certified else (outcome.lower, outcome.upper)
        elif isinstance(outcome, int):
            result, certified = outcome, note == "ok"
        else:
            result, certified = (outcome.lower, outcome.upper), outcome.certified
        return RunReport(
            group_name=self.name, order=self.group.order, method=method, result=result,
            certified=certified, wall_time=time.monotonic() - self.start,
            provenance=provenance or self.mx.provenance, note=note)


def _profile(args) -> tuple[IncidenceProfile, str]:
    """The --profile table, or the group's incidence profile, and its name."""
    if args.profile:
        if args.library or args.file or args.maximals:
            raise CovnumError("give either --profile or a group (--library or --file)")
        return parse_profile(Path(args.profile).read_text()), Path(args.profile).stem
    run = _Run(args).load(cyclic_ok=True)
    return incidence_profile(run.group, run.group.conjugacy_classes(), run.mx), run.name


def cmd_bounds(args) -> int:
    run = _Run(args).load()
    trace = covering_number_bounds(run.group, run.mx, args.mode)
    report = run.report("greedy", trace)
    sys.stdout.write(render_trace(trace))
    sys.stdout.write(_render_reports([report], args.format))
    return 0


def cmd_exact(args) -> int:
    run = _Run(args).load()
    result = run.exact()
    report = run.report("exact", result, BUDGET_NOTE if result.budget_exhausted else "")
    sys.stdout.write(_render_reports([report], args.format))
    return 0


def cmd_verify(args) -> int:
    profile, name = _profile(args)
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
    profile, _ = _profile(args)
    sys.stdout.write(render_profile(profile))
    return 0


def cmd_sigma_elementary(args) -> int:
    run = _Run(args).load()
    report = is_sigma_elementary(run.group, run.budget, mx=run.mx)
    print(f"group: {run.name} (order {run.group.order}), sigma = {report.sigma}")
    for chk in report.checks:
        quotient = "infinite (cyclic quotient)" if chk.quotient_sigma is None \
            else str(chk.quotient_sigma)
        print(f"  |N| = {chk.normal_order}: sigma(G/N) = {quotient} -> {chk.verdict}")
    print(f"sigma-elementary: {str(report.value).lower()}")
    return 0


def _batch_note(result: CoverResult, meets: bool, reference: str) -> str:
    """'ok' for an optimal result that meets the reference value, the budget
    note for a cut search whose bracket still meets it, and a mismatch naming
    the reference otherwise. Only 'ok' counts as passed."""
    if meets:
        return "ok" if result.optimal else BUDGET_NOTE
    return f"MISMATCH {reference}"


def _batch_row(run: _Run, name: str, group: PermGroup | None) -> RunReport:
    """A registry row solves the library group ``name`` and checks it
    against the registry; a solvable-oracle row checks the chief-factor
    formula for ``group`` against the exact search."""
    run.load_row(name, group)
    if group is not None:
        formula, result = sigma_solvable(group), run.exact()
        note = _batch_note(result, result.lower <= formula <= result.upper,
                           f"exact={result.upper}" if result.optimal
                           else f"exact={result.lower}..{result.upper}")
        return run.report("formula", formula, note)
    result, entry = run.exact(), library.entry(name)
    if not entry.registry_name:
        return run.report("exact", result, _batch_note(result, True, ""))
    known = lookup_known(entry.registry_name)
    note = _batch_note(result, known.meets(result.lower, result.upper),
                       f"vs registry {known.exact or known.bounds}")
    return run.report("exact", result, note, f"registry({known.citation})")


def cmd_batch(args) -> int:
    """One loop over a suite's rows; only 'ok' rows pass, and a CovnumError
    in a row becomes that row's error."""
    run = _Run(args)
    if args.suite == "solvable-oracle":
        rows = [(group.name or "?", group) for group in library.solvable_suite()]
    elif args.suite in library.SUITES:
        rows = [(key, None) for key in library.SUITES[args.suite]]
    else:
        names = sorted(set(library.SUITES) | {"solvable-oracle"})
        raise CovnumError(f"unknown suite {args.suite!r} (known: {', '.join(names)})")
    reports: list[RunReport] = []
    for name, group in rows:
        try:
            reports.append(_batch_row(run, name, group))
        except CovnumError as exc:
            reports.append(RunReport(group_name=name, order=0,
                                     method="exact" if group is None else "formula",
                                     result=(0, 0), note=f"error: {exc}"))
    sys.stdout.write(_render_reports(reports, args.format))
    passed = sum(r.note == "ok" for r in reports)
    print(f"{passed}/{len(reports)} passed")
    return 0 if passed == len(reports) else 1


def cmd_known(args) -> int:
    entry = lookup_known(args.name)
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

    def formats(p):
        p.add_argument("--format", choices=("human", "records"), default="human")

    def budgets(p):
        p.add_argument("--max-nodes", type=int, default=5_000_000)
        p.add_argument("--time-limit", type=float, default=None,
                       help="seconds for the exact search (default: none)")

    p = sub.add_parser("bounds", help="greedy lower/upper bounds with certificate")
    _add_group_args(p)
    formats(p)
    p.add_argument("--mode", choices=("corrected", "faithful"), default="corrected")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("exact", help="exact covering number by branch and bound")
    _add_group_args(p)
    formats(p)
    budgets(p)
    p.add_argument("--classes", nargs="+", help="element-class labels, e.g. cl_7,1 cl_7,2")
    p.add_argument("--subgroup-classes", nargs="+", help="subgroup-class labels, e.g. M1 M3")
    p.add_argument("--write-lp", help="also write the instance as an .lp file")
    p.add_argument("--write-instance", help="also write the portable instance text")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("verify", help="minimality certificate for a chosen pi/cover")
    _add_group_args(p)
    p.add_argument("--profile", help="stored profile table instead of a group")
    p.add_argument("--pi", nargs="+", required=True, help="element-class labels")
    p.add_argument("--cover", nargs="+", required=True, help="subgroup-class labels")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="element-distribution table")
    _add_group_args(p)
    p.add_argument("--profile", help="replay a stored profile table")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("sigma-elementary", help="test sigma(G) < sigma(G/N) for all N")
    _add_group_args(p)
    budgets(p)
    p.set_defaults(func=cmd_sigma_elementary)

    p = sub.add_parser("batch", help="run a named suite against the registry")
    p.add_argument("suite")
    formats(p)
    budgets(p)
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

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import covnum
from covnum import cli, cover
from covnum.cli import main
from covnum.cover import CoverResult, SolveBudget, build_instance, format_lp, \
    parse_instance, solve
from covnum.errors import BudgetExceeded
from covnum.groups import format_group_file
from covnum.perms import format_cycles
from covnum.subgroups import format_maximal_file, maximal_classes_computed
from covnum import library
from test_subgroups import a5_wr_2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_library(capsys):
    code, out, _ = run(capsys, "bounds", "--library", "A5", "--format", "records")
    assert code == 0
    assert "sigma=6..11" in out and "method=greedy" in out


def test_bounds_corrected_v4(capsys):
    code, out, _ = run(capsys, "bounds", "--library", "V4", "--mode", "corrected",
                       "--format", "records")
    assert code == 0
    assert "sigma=1..3" in out and "certified=true" in out


def test_exact_psl27(capsys):
    code, out, _ = run(capsys, "exact", "--library", "PSL27", "--format", "records")
    assert code == 0
    assert "sigma=15" in out and "certified=true" in out
    assert "provenance=computed" in out


def test_exact_cyclic_errors(capsys):
    code, _, err = run(capsys, "exact", "--library", "C6")
    assert code == 1
    assert "CyclicGroup" in err


def test_exact_selected_classes_with_lp(tmp_path, capsys):
    lp = tmp_path / "psl.lp"
    inst = tmp_path / "psl.cover"
    code, out, _ = run(capsys, "exact", "--library", "PSL27",
                       "--classes", "cl_7,1", "cl_7,2", "--subgroup-classes", "M3",
                       "--write-lp", str(lp), "--write-instance", str(inst),
                       "--format", "records")
    assert code == 0
    assert "sigma=8" in out
    assert lp.read_text().startswith("\\ minimum subgroup cover")
    assert inst.read_text().startswith("universe 48")


def test_exact_writes_full_instance_without_selection(tmp_path, capsys):
    """With no class selection the written instance is the full one that
    the exact search solves, and the printed record is unchanged."""
    lp, inst = tmp_path / "a5.lp", tmp_path / "a5.inst"
    code, out, _ = run(capsys, "exact", "--library", "A5", "--format", "records",
                       "--write-lp", str(lp), "--write-instance", str(inst))
    assert code == 0
    _, plain, _ = run(capsys, "exact", "--library", "A5", "--format", "records")
    assert re.sub(r"time=\S+", "", out) == re.sub(r"time=\S+", "", plain)
    group = library.group("A5")
    full = build_instance(group, group.conjugacy_classes(), library.maximals("A5"))
    assert parse_instance(inst.read_text()).column_masks == full.column_masks
    assert lp.read_text() == format_lp(full, group.name)


def test_exact_builds_one_instance(tmp_path, capsys, monkeypatch):
    """Writing the instance and solving it share one build."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return build_instance(*args, **kwargs)

    monkeypatch.setattr(cli, "build_instance", counting)
    monkeypatch.setattr(cover, "build_instance", counting)
    code, out, _ = run(capsys, "exact", "--library", "A5", "--format", "records",
                       "--write-lp", str(tmp_path / "a5.lp"))
    assert code == 0 and "sigma=10" in out
    assert calls == ["A5"]


def test_table_contains_a5_entry(capsys):
    code, out, _ = run(capsys, "table", "--library", "A5")
    assert code == 0
    assert "cl_3\t8_2\t0\t2,P" in out


def test_table_fixture_replay_is_byte_identical(capsys, data_dir):
    fixture = data_dir / "psl274_profile.tsv"
    code, out, _ = run(capsys, "table", "--profile", str(fixture))
    assert code == 0
    assert out == fixture.read_text()


def test_verify_fixture(capsys, data_dir):
    code, out, _ = run(capsys, "verify", "--profile",
                       str(data_dir / "psl274_profile.tsv"),
                       "--pi", "cl_24", "cl_16", "--cover", "M1", "M3")
    assert code == 0
    assert "verdict: unique_minimal" in out
    assert "c(M2) = 0" in out


def test_verify_inconclusive_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--library", "A5",
                       "--pi", "cl_2", "--cover", "M2")
    assert code == 1
    assert "verdict: inconclusive" in out


def test_table_of_a_cyclic_group(capsys):
    """The incidence table does not need a finite covering number."""
    code, out, _ = run(capsys, "table", "--library", "C6")
    assert code == 0
    assert out.splitlines()[0] == "\tM1(1)\tM2(1)"


@pytest.mark.parametrize("command, source", [
    ("table", ["--library", "A5"]),
    ("verify", ["--library", "A5", "--pi", "cl_2", "--cover", "M1"]),
    ("table", ["--file", "a5.grp"]),
    ("verify", ["--file", "a5.grp", "--pi", "cl_2", "--cover", "M1"]),
    ("table", ["--maximals", "a5.max"]),
    ("verify", ["--maximals", "a5.max", "--pi", "cl_2", "--cover", "M1"]),
])
def test_profile_with_a_group_is_an_error(command, source, capsys, data_dir):
    """--profile replaces the group, so giving both, or a group's
    --maximals, is refused, not resolved by dropping the group."""
    code, out, err = run(capsys, command, "--profile",
                         str(data_dir / "psl274_profile.tsv"), *source)
    assert code == 1 and out == ""
    assert err == "error: CovnumError: give either --profile or a group " \
                  "(--library or --file)\n"


def test_sigma_elementary_command(capsys):
    code, out, _ = run(capsys, "sigma-elementary", "--library", "D8")
    assert code == 0
    assert "sigma-elementary: false" in out


def test_known_command(capsys):
    code, out, _ = run(capsys, "known", "M11")
    assert code == 0
    assert "sigma 23" in out and "registry(" in out
    code, _, err = run(capsys, "known", "Monster")
    assert code == 1 and "Unknown" in err


def test_known_prints_brackets_and_open_ended_bounds(capsys):
    code, out, _ = run(capsys, "known", "A7 wr 2")
    assert code == 0
    assert out == "A7 wr 2\tsigma 447..667\tdegree 49\t" \
                  "registry(incidence counting bound and greedy)\n"
    code, out, _ = run(capsys, "known", "PSL(5,3)")
    assert code == 0
    assert out == "PSL(5,3)\tsigma >= 393030144\tdegree 121\t" \
                  "registry(Singer-cycle containment count)\n"


HUMAN_HEADER = [
    "group            order  method         sigma  certified provenance                  time  note",
    "-" * 94,
]


def _mask_times(out):
    """The human report's lines, each time column (7 wide, then 's') masked."""
    return re.sub(r"[ \d]{3}\d\.\d\ds", "   T.TTs", out).splitlines()


def _mask_record_times(out):
    """The records report's lines, each ``time=`` field masked."""
    return re.sub(r"time=\d+\.\d\ds", "time=T.TTs", out).splitlines()


def test_exact_human_format(capsys):
    code, out, _ = run(capsys, "exact", "--library", "A5")
    assert code == 0
    assert _mask_times(out) == HUMAN_HEADER + [
        "A5                  60  exact             10  true      computed                   T.TTs  "]


def test_batch_golden_small_human_format(capsys):
    """The provenance column is as wide as the longest provenance, 40
    characters here, so the time and note columns stay under their headers."""
    code, out, _ = run(capsys, "batch", "golden-small")
    assert code == 0
    head = "{:<14}{:>8}  exact   {:>12}  true      "
    assert _mask_times(out) == [
        "group            order  method         sigma  certified provenance"
        "                                  time  note",
        "-" * 110,
    ] + [
        head.format(name, order, sigma) + f"{provenance:<40}   T.TTs  ok"
        for name, order, sigma, provenance in [
            ("V4", 4, 3, "registry(Scorza)"),
            ("S3", 6, 4, "registry(Tomkinson chief-factor formula)"),
            ("A5", 60, 10, "registry(Cohn)"),
            ("S5", 120, 16, "registry(Cohn)"),
            ("A6", 360, 16, "registry(Bryce-Fedri-Serena)"),
            ("S6", 720, 13, "registry(Abdollahi-Ashraf-Shaker)"),
            ("PSL27", 168, 15, "registry(Bryce-Fedri-Serena)"),
            ("PGL27", 336, 29, "registry(Bryce-Fedri-Serena)"),
        ] + [(f"AGL1{q}", q * (q - 1), q + 1, "registry(affine cover, dimension one)")
             for q in (3, 4, 5, 7, 8)]
    ] + ["13/13 passed"]


def test_batch_affine_suite(capsys):
    code, out, _ = run(capsys, "batch", "affine-small", "--format", "records")
    assert code == 0
    assert out.count("provenance=registry") == 5
    assert "5/5 passed" in out


def test_batch_unknown_suite(capsys):
    code, _, err = run(capsys, "batch", "no-such-suite")
    assert code == 1 and "unknown suite" in err


def test_batch_empty_suite(capsys):
    code, out, _ = run(capsys, "batch", "empty")
    assert code == 0
    assert out.splitlines() == HUMAN_HEADER + ["0/0 passed"]
    code, out, _ = run(capsys, "batch", "empty", "--format", "records")
    assert code == 0
    assert out == "0/0 passed\n"  # no rows, so no blank line before the tally


def test_batch_golden_small(capsys):
    code, out, _ = run(capsys, "batch", "golden-small", "--format", "records")
    assert code == 0
    assert "13/13 passed" in out
    for fragment in ["group=V4 order=4 method=exact sigma=3",
                     "group=S6 order=720 method=exact sigma=13",
                     "group=PGL27 order=336 method=exact sigma=29",
                     "group=AGL15 order=20 method=exact sigma=6"]:
        assert fragment in out


def test_batch_solvable_oracle(capsys):
    code, out, _ = run(capsys, "batch", "solvable-oracle", "--format", "records")
    assert code == 0
    assert "33/33 passed" in out


def test_batch_cut_search_is_a_budget_note_not_a_mismatch(capsys):
    # a one-node search leaves brackets that contain the registry values
    code, out, _ = run(capsys, "batch", "golden-small", "--max-nodes", "1",
                       "--format", "records")
    assert code == 1 and "8/13 passed" in out
    assert "MISMATCH" not in out
    assert "group=A5 order=60 method=exact sigma=8..10 certified=false " \
           "provenance=registry(Cohn)" in out
    assert out.count(f"note={cli.BUDGET_NOTE}") == 5


def test_batch_note_tells_a_cut_search_from_a_mismatch():
    cut = CoverResult(8, 10, (), 1, True)
    solved = CoverResult(10, 10, (), 5, False)
    assert solved.optimal and not cut.optimal
    assert cli._batch_note(solved, True, "vs registry 10") == "ok"
    assert cli._batch_note(cut, True, "vs registry 10") == cli.BUDGET_NOTE
    assert cli._batch_note(cut, False, "vs registry 11") == "MISMATCH vs registry 11"
    assert cli._batch_note(solved, False, "vs registry 11") == "MISMATCH vs registry 11"


def test_batch_solvable_oracle_human_format(capsys):
    code, out, _ = run(capsys, "batch", "solvable-oracle")
    assert code == 0
    assert _mask_times(out) == HUMAN_HEADER + [
        f"{name:<14}{order:>8}  formula {sigma:>12}  true      computed"
        "                   T.TTs  ok"
        for name, order, sigma in [(f"D{n}", n, sigma) for n, sigma in zip(
            range(6, 34, 2), [4, 3, 6, 3, 8, 3, 4, 3, 12, 3, 14, 3, 4, 3])] + [
            ("C2^2", 4, 3), ("C2^3", 8, 3), ("C3^2", 9, 4), ("C5^2", 25, 6), ("Q8", 8, 3),
            ("S4", 24, 4), ("A4", 12, 5), ("F21", 21, 8), ("C2xC4", 8, 3), ("S3xS3", 36, 3),
            ("S3xC3", 18, 4), ("A4xC3", 36, 4), ("D8xC2", 16, 3),
        ] + [(f"AGL(1,{q})", q * (q - 1), q + 1) for q in (3, 4, 5, 7, 8, 9)]
    ] + ["33/33 passed"]


def test_batch_solvable_oracle_error_is_one_row(capsys, monkeypatch):
    """A CovnumError in one solvable-oracle group fails that row only; the
    other rows are still computed and printed."""
    formula = cli.sigma_solvable

    def failing(group):
        if group.name == "Q8":
            raise BudgetExceeded("complement budget")
        return formula(group)

    monkeypatch.setattr(cli, "sigma_solvable", failing)
    code, out, _ = run(capsys, "batch", "solvable-oracle", "--format", "records")
    assert code == 1
    assert "group=Q8 order=8 method=formula sigma=- certified=false provenance=computed " \
           "time=T.TTs note=error: complement budget" in _mask_record_times(out)
    assert out.count("note=ok") == 32 and out.endswith("32/33 passed\n")


def test_batch_row_whose_list_fails_prints_no_provenance(capsys, monkeypatch):
    """A row whose maximal list does not load prints '-' for its provenance,
    not the list of the row before it."""
    computed = cli.maximal_classes_computed

    def failing(group, cap):
        if group.name == "Q8":
            raise BudgetExceeded("lattice budget")
        return computed(group, cap)

    monkeypatch.setattr(cli, "maximal_classes_computed", failing)
    code, out, _ = run(capsys, "batch", "solvable-oracle", "--format", "records")
    lines = _mask_record_times(out)
    at = lines.index("group=Q8 order=8 method=formula sigma=- certified=false provenance=- "
                     "time=T.TTs note=error: lattice budget")
    assert lines[at - 1] == "group=C5^2 order=25 method=formula sigma=6 certified=true " \
                            "provenance=computed time=T.TTs note=ok"
    assert code == 1 and out.endswith("32/33 passed\n")


def test_batch_solvable_oracle_passes_the_budget(capsys, monkeypatch):
    budgets = []

    def recording(instance, budget=SolveBudget(), *args, **kwargs):
        budgets.append(budget)
        return solve(instance, budget, *args, **kwargs)

    monkeypatch.setattr(cli, "solve", recording)
    code, out, _ = run(capsys, "batch", "solvable-oracle", "--max-nodes", "1",
                       "--time-limit", "30", "--format", "records")
    assert budgets and set(budgets) == {SolveBudget(max_nodes=1, time_limit=30.0)}
    # every solvable-suite instance closes on its root bound, so one node
    # still certifies all of them
    assert code == 0 and "33/33 passed" in out


def test_table_v4_diagonal(capsys):
    code, out, _ = run(capsys, "table", "--library", "V4")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        cells = row.split("\t")[1:]
        assert sorted(cells) == ["0", "0", "1,P"]


def test_bounds_m11_from_files(capsys, data_dir):
    code, out, _ = run(capsys, "bounds", "--file", str(data_dir / "m11.grp"),
                       "--maximals", str(data_dir / "m11.max"),
                       "--format", "records")
    assert code == 0
    assert "sigma=12..23" in out and "certified=true" in out
    assert "provenance=ingested" in out


def test_group_and_maximal_files(tmp_path, capsys):
    group = library.group("A5")
    gfile = tmp_path / "a5.grp"
    gfile.write_text(format_group_file(group))
    mfile = tmp_path / "a5.max"
    mfile.write_text(format_maximal_file(maximal_classes_computed(group)))
    code, out, _ = run(capsys, "exact", "--file", str(gfile),
                       "--maximals", str(mfile), "--format", "records")
    assert code == 0
    assert "sigma=10" in out and "provenance=ingested" in out


def test_exact_a5_wr_2_from_a_file_brackets_57(tmp_path, capsys):
    """The paper's A5 wr 2 (sigma 57, order 7200) lies over the default
    lattice cap. At a 10,000 cap and a 2,000-node budget, exact computes its
    maximal classes and prints a bracket that holds 57."""
    gfile = tmp_path / "a5wr2.grp"
    gfile.write_text(format_group_file(a5_wr_2()))
    code, out, _ = run(capsys, "exact", "--file", str(gfile), "--max-lattice", "10000",
                       "--max-nodes", "2000", "--format", "records")
    assert code == 0
    low, high = re.search(r" sigma=(\d+)(?:\.\.(\d+))? ", out).groups()
    assert int(low) <= 57 <= int(high or low)


@pytest.mark.parametrize("command", ["exact", "bounds", "sigma-elementary"])
def test_incomplete_maximal_list_is_refused(tmp_path, capsys, command):
    """A5's list without its index-5 class gave sigma 16 certified, where
    sigma(A5) is 10: within --max-lattice an ingested list must be the
    computed one."""
    group = library.group("A5")
    gfile = tmp_path / "a5.grp"
    gfile.write_text(format_group_file(group))
    blocks = format_maximal_file(maximal_classes_computed(group)).split("[class ")
    kept = [b for b in blocks[1:] if "\nindex 5\n" not in b]
    assert len(kept) == len(blocks) - 2 == 2
    mfile = tmp_path / "a5_missing.max"
    mfile.write_text("".join("[class " + b for b in kept))
    code, out, err = run(capsys, command, "--file", str(gfile), "--maximals", str(mfile))
    assert code == 1 and out == ""
    assert err == "error: IngestInvalid: the ingested maximal classes (2) are not " \
                  "the computed ones (3)\n"


def _whole_group_maximals(tmp_path):
    group = library.group("A5")
    gens = "\n".join(format_cycles(g) for g in group.generators)
    path = tmp_path / "whole.max"
    path.write_text(f"[class 1]\nindex 1\nlength 1\n{gens}\n")
    return path


def test_whole_group_is_not_a_maximal_class(tmp_path, capsys):
    code, out, err = run(capsys, "exact", "--library", "A5",
                         "--maximals", str(_whole_group_maximals(tmp_path)),
                         "--format", "records")
    assert code == 1 and out == ""
    assert "IngestInvalid" in err


def test_whole_group_rejected_without_asserts(tmp_path):
    """The index-1 check is explicit, so python -O does not strip it."""
    src = str(Path(covnum.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "covnum.cli", "exact", "--library", "A5",
         "--maximals", str(_whole_group_maximals(tmp_path))],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert "IngestInvalid" in proc.stderr


def test_infeasible_selection_names_its_witness_in_cycles(capsys):
    code, out, err = run(capsys, "exact", "--library", "A5", "--classes", "cl_5,1",
                         "--subgroup-classes", "M1")
    assert code == 1 and out == ""
    assert err == "error: Infeasible: element (1,2,3,4,5) of class cl_5,1 " \
                  "lies in no selected subgroup\n"


def test_missing_group_file_is_an_error_line(tmp_path, capsys):
    missing = tmp_path / "missing.grp"
    code, out, err = run(capsys, "exact", "--file", str(missing))
    assert code == 1 and out == ""
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_sigma_elementary_out_of_budget_is_undecided(capsys):
    """A search cut before sigma(G) closes cannot decide sigma(G) < sigma(G/N)."""
    code, out, err = run(capsys, "sigma-elementary", "--library", "A6", "--max-nodes", "1")
    assert code == 1 and out == ""
    assert err == "error: Undecided: sigma(G) did not close within budget\n"


def test_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.grp"
    bad.write_text("degree 3\n(1,5)\n")
    code, _, err = run(capsys, "exact", "--file", str(bad))
    assert code == 1
    assert "line 2" in err


def test_group_source_required(capsys):
    code, _, err = run(capsys, "bounds")
    assert code == 1
    assert "exactly one" in err


def test_sigma_elementary_m11(capsys):
    code, out, _ = run(capsys, "sigma-elementary", "--library", "M11")
    assert code == 0
    assert "sigma = 23" in out
    assert "sigma-elementary: true" in out


@pytest.mark.parametrize("command", ["bounds", "exact"])
def test_records_time_includes_maximal_classes(command, capsys, monkeypatch):
    computed = cli.maximal_classes_computed

    def slow_maximals(*args, **kwargs):
        time.sleep(0.3)
        return computed(*args, **kwargs)

    monkeypatch.setattr(cli, "maximal_classes_computed", slow_maximals)
    code, out, _ = run(capsys, command, "--library", "A5", "--format", "records")
    assert code == 0
    seconds = float(re.search(r"time=([0-9.]+)s", out).group(1))
    assert seconds >= 0.30


# malformed numbers in profile tables and maximal-subgroup files
BAD_FILES = {
    "header.tsv": "\tM1(2)\tM2(x)\ncl_2\t1,P\t1,P\n",
    "label.tsv": "\tM1(2)\ncl_x\t1,P\n",
    "cell_p.tsv": "\tM1(2)\ncl_2\tx,P\n",
    "cell_k.tsv": "\tM1(2)\ncl_2\t1_x\n",
    "zero_p.tsv": "\tM1(2)\tM2(2)\ncl_2\t1,P\t0,P\n",
    "zero_n.tsv": "\tM1(2)\tM2(2)\ncl_2\t1,P\t0_3\n",
    "index.max": "[class 1]\nindex x\nlength 5\n(1,2,3)\n",
    "length.max": "[class 1]\nlength x\nindex 5\n(1,2,3)\n",
    # A4 on {1,2,3,4}, then its conjugate on {1,2,3,5}
    "conjugate.max": "[class 1]\nindex 5\nlength 5\n(1,2,3)\n(2,3,4)\n"
                     "[class 2]\nindex 5\nlength 5\n(1,2,3)\n(2,3,5)\n",
    "no_gens.max": "[class 1]\nindex 5\nlength 5\n",
    "section.max": "[group]\nindex 5\n",
    "before.max": "index 5\n[class 1]\nindex 5\nlength 5\n(1,2,3)\n",
    "generator.max": "[class 1]\nindex 5\nlength 5\n(1,2,9)\n",
    "empty.max": "# no classes\n\n",
    "degree_x.grp": "degree x\n(1,2)\n",
    "degree_0.grp": "degree 0\n",
    "subgroup_header.tsv": "\tM1(2)\tM2\ncl_2\t1,P\t1,P\n",
    "element_label.tsv": "\tM1(2)\n\n2A\t1,P\n",
    "entry.tsv": "\tM1(2)\tM2(2)\ncl_2\t1,P\t0\n\ncl_3\t1,P\tP\n",
}
# the message each of these files must be refused with
BAD_FILE_MESSAGES = {
    "conjugate.max": "two listed subgroups are conjugate",
    "no_gens.max": "line 1: class section has no generators",
    "section.max": "line 1: unexpected section '[group]'",
    "before.max": "line 1: content before first [class] section",
    "generator.max": "line 4: point out of range 1..5 in '(1,2,9)'",
    "empty.max": "no [class] sections found",
    "degree_x.grp": "line 1: bad degree 'x'",
    "degree_0.grp": "line 1: degree must be positive",
    "subgroup_header.tsv": "line 1: bad subgroup-class header 'M2'",
    "element_label.tsv": "line 3: bad element-class label '2A'",
    "entry.tsv": "line 4: bad entry 'P'",
}


@pytest.mark.parametrize("argv, error", [
    (["bounds", "--library", "C5"], "CyclicGroup"),
    (["bounds", "--library", "C6"], "CyclicGroup"),
    (["exact", "--library", "A5", "--classes", "cl_9"], "Unknown"),
    (["exact", "--library", "A5", "--subgroup-classes", "M9"], "Unknown"),
    (["verify", "--library", "A5", "--pi", "cl_9", "--cover", "M1"], "Unknown"),
    (["verify", "--library", "A5", "--pi", "cl_3", "--cover", "M9"], "Unknown"),
    (["verify", "--library", "A5", "--pi", "cl_3", "--cover", "M1", "M1"], "NotACover"),
    (["verify", "--library", "A5", "--pi", "cl_5,1", "--cover", "M2", "M1"], "NotACover"),
    (["bounds", "--library", "M11", "--max-order", "100"], "CapExceeded"),
    (["table", "--library", "A6", "--max-order", "359"], "CapExceeded"),
    (["verify", "--library", "A5", "--pi", "cl_2", "cl_2", "--cover", "M1"], "NotACover"),
    (["table", "--profile", "{tmp}/header.tsv"], "ParseError"),
    (["table", "--profile", "{tmp}/label.tsv"], "ParseError"),
    (["table", "--profile", "{tmp}/cell_p.tsv"], "ParseError"),
    (["table", "--profile", "{tmp}/cell_k.tsv"], "ParseError"),
    (["table", "--profile", "{tmp}/zero_p.tsv"], "ParseError"),
    (["table", "--profile", "{tmp}/zero_n.tsv"], "ParseError"),
    (["exact", "--library", "A5", "--maximals", "{tmp}/index.max"], "ParseError"),
    (["exact", "--library", "A5", "--maximals", "{tmp}/length.max"], "ParseError"),
    (["exact", "--library", "A6", "--max-nodes", "-5"], "CovnumError"),
    (["exact", "--library", "A6", "--time-limit", "-1"], "CovnumError"),
    (["exact", "--library", "A6", "--time-limit", "nan"], "CovnumError"),
    (["sigma-elementary", "--library", "A5", "--max-nodes", "-1"], "CovnumError"),
    (["batch", "empty", "--time-limit", "-0.5"], "CovnumError"),
    (["exact", "--library", "A6", "--max-lattice", "100"], "BudgetExceeded"),
    (["sigma-elementary", "--library", "A5xC2", "--max-lattice", "60"], "BudgetExceeded"),
    # a cyclic group is rejected before its maximal classes meet the lattice cap
    (["exact", "--library", "C6", "--max-lattice", "3"], "CyclicGroup"),
    (["bounds", "--library", "C6", "--max-lattice", "3"], "CyclicGroup"),
    (["sigma-elementary", "--library", "C6", "--max-lattice", "3"], "CyclicGroup"),
    (["table", "--library", "C6", "--max-lattice", "3"], "BudgetExceeded"),
    (["exact", "--library", "A5", "--maximals", "{tmp}/conjugate.max"], "IngestInvalid"),
    (["exact", "--library", "A5", "--maximals", "{tmp}/no_gens.max"], "ParseError"),
    (["exact", "--library", "A5", "--maximals", "{tmp}/section.max"], "ParseError"),
    (["exact", "--library", "A5", "--maximals", "{tmp}/before.max"], "ParseError"),
    (["exact", "--library", "A5", "--maximals", "{tmp}/generator.max"], "ParseError"),
    (["exact", "--library", "A5", "--maximals", "{tmp}/empty.max"], "ParseError"),
    (["exact", "--file", "{tmp}/degree_x.grp"], "ParseError"),
    (["exact", "--file", "{tmp}/degree_0.grp"], "ParseError"),
    (["table", "--profile", "{tmp}/subgroup_header.tsv"], "ParseError"),
    (["table", "--profile", "{tmp}/element_label.tsv"], "ParseError"),
    (["table", "--profile", "{tmp}/entry.tsv"], "ParseError"),
    (["exact", "--library", "nope"], "Unknown"),
])
def test_bad_input_exits_with_error_line(argv, error, capsys, tmp_path):
    for name, text in BAD_FILES.items():
        (tmp_path / name).write_text(text)
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1 and out == ""
    name = re.fullmatch(r"error: (\w+): .*\n", err).group(1)
    assert name == error and issubclass(getattr(covnum, name), covnum.CovnumError)
    assert "Traceback" not in err
    files = [a.rsplit("/", 1)[-1] for a in argv if a.startswith("{tmp}/")]
    for file in files:
        if file in BAD_FILE_MESSAGES:
            assert err == f"error: {error}: {BAD_FILE_MESSAGES[file]}\n"
    if error == "ParseError" and files != ["empty.max"]:  # no section, so no line to name
        assert re.match(r"error: ParseError: line \d+: ", err)

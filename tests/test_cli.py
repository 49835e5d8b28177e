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
    parse_instance, sigma_exact
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
])
def test_profile_with_a_group_is_an_error(command, source, capsys, data_dir):
    """--profile replaces the group, so giving both is refused, not resolved
    by dropping the group."""
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
    assert "0/0 passed" in out


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


def test_batch_solvable_oracle_passes_the_budget(capsys, monkeypatch):
    budgets = []

    def recording(group, budget=SolveBudget(), *args, **kwargs):
        budgets.append(budget)
        return sigma_exact(group, budget, *args, **kwargs)

    monkeypatch.setattr(cli, "sigma_exact", recording)
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
])
def test_bad_input_exits_with_error_line(argv, error, capsys, tmp_path):
    for name, text in BAD_FILES.items():
        (tmp_path / name).write_text(text)
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1 and out == ""
    name = re.fullmatch(r"error: (\w+): .*\n", err).group(1)
    assert name == error and issubclass(getattr(covnum, name), covnum.CovnumError)
    assert "Traceback" not in err
    if error == "ParseError":
        assert re.match(r"error: ParseError: line \d+: ", err)

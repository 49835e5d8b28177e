import importlib.util
import re
import subprocess
import sys
from pathlib import Path

from test_subgroups import WALK_SHA256

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "build_m11_maximals.py"


def test_build_m11_maximals_reproduces_bundled_files(data_dir):
    spec = importlib.util.spec_from_file_location("build_m11_maximals", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    group_text, maximals_text = module.build()
    assert group_text.encode() == (data_dir / "m11.grp").read_bytes()
    assert maximals_text.encode() == (data_dir / "m11.max").read_bytes()


CLI_TEXT = Path(__file__).resolve().parents[1] / "scripts" / "cli_text.py"


def test_cli_text_masks_every_time():
    """The CLI text script on A5 and S4: each run shows its exit code and
    streams, the files written by --write-lp and --write-instance are
    included, and no time is left unmasked."""
    spec = importlib.util.spec_from_file_location("cli_text", CLI_TEXT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    text = module.main_text(["A5", "S4"])
    runs = text.split("$ covnum ")[1:]
    assert len(runs) == 2 * 10 + len(module.ERROR_RUNS)
    assert all("\nexit " in r and "\n-- stdout\n" in r and "\n-- stderr\n" in r for r in runs)
    assert "-- file A5.lp" in text and "-- file S4.inst" in text
    assert "time=T.TTs" in text and "   T.TTs" in text
    assert not re.search(r"time=\d", text)
    assert not re.search(r"\d\.\d\ds\b", text)


WALK_TIME = Path(__file__).resolve().parents[1] / "scripts" / "walk_time.py"


def test_walk_time_hashes_the_pinned_walk():
    """The walk timing script on S4, twice, each walk in its own process:
    standard output is the walk's pinned hash, and the CPU times go to
    standard error."""
    proc = subprocess.run([sys.executable, str(WALK_TIME), "S4", "--runs", "2"],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == f"S4 cap=5000 sha256={WALK_SHA256['S4']}\n"
    assert re.fullmatch(r"S4 cap=5000 cpu_s=\d+\.\d{3} \d+\.\d{3}\n", proc.stderr)

import importlib.util
import re
from pathlib import Path

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

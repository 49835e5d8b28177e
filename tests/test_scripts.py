import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "build_m11_maximals.py"


def test_build_m11_maximals_reproduces_bundled_files(data_dir):
    spec = importlib.util.spec_from_file_location("build_m11_maximals", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    group_text, maximals_text = module.build()
    assert group_text.encode() == (data_dir / "m11.grp").read_bytes()
    assert maximals_text.encode() == (data_dir / "m11.max").read_bytes()

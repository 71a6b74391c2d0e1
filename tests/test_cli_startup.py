import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cli_startup.py"
_spec = importlib.util.spec_from_file_location("cli_startup", _PATH)
cli_startup = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_startup)


def test_generate_timed_once_without_scipy(tmp_path):
    [row] = cli_startup.measure(["generate"], 1, tmp_path)
    assert (row["command"], row["exit"], row["scipy"]) == ("generate", [0], [False])
    assert 0 < row["min_s"] == row["median_s"] == row["max_s"]

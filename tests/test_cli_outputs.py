import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cli_outputs.py"
_spec = importlib.util.spec_from_file_location("cli_outputs", _PATH)
cli_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_outputs)


def test_matrix_outputs_without_timestamps_and_configs_apart(tmp_path):
    out = tmp_path / "out"
    assert cli_outputs.main([str(out)]) == 0
    runs = (out / "runs.txt").read_text().split("$ spanner-forge ")[1:]
    assert len(runs) == len(cli_outputs.MATRIX)
    for run, (code, command) in zip(runs, cli_outputs.MATRIX):
        assert run.startswith(f"{command}\nexit {code}\n")
    assert "wrote 40 points to c.txt" in runs[2]  # --copies 2 of 20 points
    reports = [p for p in out.glob("*.json") if not p.name.endswith(".config.json")]
    configs = sorted(out.glob("*.config.json"))
    # 9 instances, 2 verify, 6 compare, 2 sweep summaries and 1 sweep --out
    assert len(configs) == 20
    for path in reports:
        doc = json.loads(path.read_text())
        assert not isinstance(doc, dict) or not {"config", "timestamp"} & set(doc)
    for path in configs:
        assert json.loads(path.read_text())["command"] in ("generate", "verify", "compare",
                                                            "sweep")
    assert (out / "swx.gp").exists() and (out / "sw.csv").exists()
    assert not {"bad.csv", "bad0.txt", "bad.json", "bad.gp"} & {p.name for p in out.iterdir()}
    # a second run never mixes its outputs with the first's
    assert cli_outputs.main([str(out)]) == 2

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
    assert [run.split("\n")[0] for run in runs] == list(cli_outputs.MATRIX)
    codes = [int(run.split("\n")[1].removeprefix("exit ")) for run in runs]
    # pruned rows may exceed 1 + eps (exit 1); every rejected input exits 2
    assert codes == [0] * 16 + [1, 0, 1, 0, 0, 1, 0, 0, 0, 1] + [2] * 6
    assert "wrote 40 points to c.txt" in runs[2]  # --copies 2 of 20 points
    reports = [p for p in out.glob("*.json") if not p.name.endswith(".config.json")]
    configs = sorted(out.glob("*.config.json"))
    assert len(configs) == 17  # 8 instances, 2 verify, 5 compare, 2 sweep summaries
    for path in reports:
        doc = json.loads(path.read_text())
        assert not isinstance(doc, dict) or not {"config", "timestamp"} & set(doc)
    for path in configs:
        assert json.loads(path.read_text())["command"] in ("generate", "verify", "compare",
                                                            "sweep")
    assert (out / "swx.gp").exists() and (out / "sw.csv").exists()
    assert not (out / "bad.csv").exists() and not (out / "bad0.txt").exists()
    # a second run never mixes its outputs with the first's
    assert cli_outputs.main([str(out)]) == 2

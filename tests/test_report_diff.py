import importlib.util
import json
from pathlib import Path

from adaptgof.cli import main

from test_cli import setting1_csv

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", _SCRIPT)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


def test_identical_reports_show_no_change_and_a_perturbed_p_value_shows(tmp_path, capsys):
    path = setting1_csv(tmp_path, n=200)
    old, same, new = tmp_path / "old.json", tmp_path / "same.json", tmp_path / "new.json"
    args = ["test", "--input", path, "--response", "y", "--formula", "x1 + x2",
            "--splits", "10", "--seed", "3"]
    assert main(args + ["--output", str(old)]) == 0
    assert main(args + ["--output", str(same)]) == 0
    capsys.readouterr()

    assert report_diff.main([str(old), str(same)]) == 0
    out = capsys.readouterr().out
    assert "numeric fields that moved: none" in out
    for title in ("decision changes", "partitions changed", "rate changes", "other changes"):
        assert f"{title}: none" in out

    payload = json.loads(old.read_text())
    payload["splits"][4]["p_value"] *= 1.0 + 1e-9
    new.write_text(json.dumps(payload))
    assert report_diff.main([str(old), str(new)]) == 1
    moved = capsys.readouterr().out.split("numeric fields unchanged")[0]
    assert "splits[].p_value" in moved
    assert "new.json: splits[4].p_value" in moved
    assert "decision." not in moved

"""scripts/cold_runs.py times each default run and reads its peak RSS."""

import importlib.util
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
sys.path.insert(0, str(SCRIPTS))
spec = importlib.util.spec_from_file_location("cold_runs", SCRIPTS / "cold_runs.py")
cold_runs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cold_runs)


def test_timed_reports_seconds_peak_rss_and_exit_status(tmp_path):
    wall, peak_mb, code = cold_runs.timed(ROOT, None, tmp_path / "import")
    assert code == 0
    assert wall > 0.0
    # an interpreter that imports numpy holds more than 10 MB and far less than 1 GB
    assert 10.0 < peak_mb < 1024.0
    _, _, code = cold_runs.timed(ROOT, ["no-such-command"], tmp_path / "bad")
    assert code == 2


def test_table_has_a_peak_rss_column_per_side(capsys):
    assert cold_runs.main([str(ROOT), str(ROOT), "--runs", "1", "--only", "import"]) == 0
    head, rule, row = capsys.readouterr().out.strip().splitlines()
    assert "base MB" in head and "change MB" in head
    cells = [cell.strip() for cell in row.strip("|").split("|")]
    assert cells[0] == "import"
    assert len(cells) == len(head.strip("|").split("|"))
    assert float(cells[4]) > 10.0 and float(cells[5]) > 10.0
    assert cells[6:] == ["0", "0"]


def test_the_children_write_bytecode_whatever_the_caller_asks(tmp_path, monkeypatch):
    # a checkout without __pycache__ gets its bytecode from the first child,
    # so the timed runs do not compile the package each time
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    _, _, code = cold_runs.timed(tmp_path, None, tmp_path / "import")
    assert code == 0
    assert (tmp_path / "src" / "lorentz_synth" / "__pycache__").is_dir()

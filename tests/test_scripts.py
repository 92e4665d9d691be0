"""The experiment scripts run to the end on small inputs."""
import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parent.parent / "scripts"


@pytest.mark.parametrize("script, args", [
    ("classify_models.py", ["--pvals", "2"]),
    ("hardy_sandwich_study.py", ["--levels", "2", "--n0", "500"]),
])
def test_script_exits_cleanly(script, args, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", [script, *args])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert capsys.readouterr().out.strip()

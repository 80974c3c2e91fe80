import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, src_env):
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=src_env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr

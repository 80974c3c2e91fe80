import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
# the warning flags of CI's tier-1 step, which the child interpreter does
# not inherit from the one running the tests
WARNING_FLAGS = ["-X", "dev", "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                 "-W", "error::ResourceWarning", "-W", "error::DeprecationWarning"]


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, src_env):
    # each demo prints the same text on every run: no clock, no temp paths
    outputs = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, *WARNING_FLAGS, str(demo)],
            capture_output=True,
            encoding="utf-8",
            env=src_env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]

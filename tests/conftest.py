import os
import sys
from pathlib import Path

import hypothesis
import pytest

sys.path.insert(0, str(Path(__file__).parent))

hypothesis.settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    derandomize=True,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def digit_limit():
    """Python's default limit on digits in int <-> str conversion, set for
    the test whatever the environment chose."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.fixture
def src_env():
    """The environment for a subprocess that imports ordist from this
    checkout's ``src``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env

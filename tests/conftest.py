from __future__ import annotations

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def child_env() -> dict[str, str]:
    """The environment for a child `python -c` that imports `metacyclic`:
    this process's, with the checkout's `src/` in front of PYTHONPATH.
    The `pythonpath` setting of pyproject.toml puts `src/` on the suite's
    own `sys.path` only, and a child does not inherit that."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env

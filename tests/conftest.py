"""Fixtures shared by the tests under tests/."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qduplex

# The first lines of every capped child: 1 GiB of address space, so a read
# that holds a whole huge file fails with MemoryError in the child alone.
_CAP = "import resource, sys\nresource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"


@pytest.fixture
def capped_child(tmp_path):
    """Runs `python -c <code> *args` in tmp_path, in a child limited to 1 GiB
    of address space, with this checkout first on PYTHONPATH, and returns the
    CompletedProcess with its stdout and stderr as text.  A child still running
    after timeout seconds is killed and raises subprocess.TimeoutExpired."""
    checkout = str(Path(qduplex.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [checkout, env.get("PYTHONPATH")]))

    def run(code: str, *args: str, timeout: float = 120) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", _CAP + code, *args],
            capture_output=True, text=True, timeout=timeout, cwd=tmp_path, env=env,
        )

    return run

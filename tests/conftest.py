import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semispec


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def run_python():
    """Run a script in a fresh interpreter that imports this checkout's
    semispec; return its stdout (the script must exit 0)."""
    src = str(Path(semispec.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)

    def run(script):
        proc = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run

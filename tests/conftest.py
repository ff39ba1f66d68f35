import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import hqperc


def _run_fresh(code):
    # a fresh interpreter, since the recipe and catalog caches are process-wide
    src = str(Path(hqperc.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True
    )


@pytest.fixture
def run_fresh():
    """Run Python source in a fresh interpreter that imports this checkout's hqperc."""
    return _run_fresh

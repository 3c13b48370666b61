"""Every narrative script in ``demos/`` runs to completion.

Each demo runs in its own interpreter with ``src`` on ``PYTHONPATH``, as
the README invokes them, so a demo that imports a removed name fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, cwd=ROOT, env=env, timeout=600)
    assert res.returncode == 0, res.stderr

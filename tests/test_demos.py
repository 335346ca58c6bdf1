"""Smoke tests of the demo scripts.

Each script in ``demos/`` is run as its own process against the package
in ``src/`` and must exit cleanly, so a renamed or deleted public name
that a demo still uses fails here rather than in a reader's terminal.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_are_found():
    assert [p.name for p in DEMOS] == [
        "boolean_lifting_tour.py", "homogeneity_gallery.py",
        "rado_tour.py", "rationals_extension.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

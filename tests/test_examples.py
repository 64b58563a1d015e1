"""Every script in ``examples/`` runs to completion, as a user runs it.

Each one is a subprocess from a scratch working directory with the
source tree on ``PYTHONPATH``; ``export_products`` writes its files
into that directory rather than a fresh temp dir.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_exist():
    # An empty glob would parametrize nothing and pass silently.
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_zero(script, tmp_path):
    argv = [sys.executable, str(script)]
    if script.stem == "export_products":
        argv.append(str(tmp_path))
    path = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else ""),
    }
    done = subprocess.run(
        argv, cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    if script.stem == "export_products":
        assert (tmp_path / "prefixes-scored.txt").stat().st_size > 0

"""Packaging: a built (non-editable) tree ships the C kernel source.

``repro.core.kernels`` compiles ``_kernels.c`` on first use; a wheel
without it silently runs every ``pip install .`` user on the numpy
reference.  The build runs on a copy under ``tmp_path`` — run in the
checkout, ``build_py`` drops an untracked ``src/repro.egg-info``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_built_tree_ships_the_kernel_source(tmp_path):
    project = tmp_path / "project"
    project.mkdir()
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, project / name)
    shutil.copytree(
        ROOT / "src", project / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    built = tmp_path / "built"
    result = subprocess.run(
        [
            sys.executable, "-c", "from setuptools import setup; setup()",
            "build_py", "--build-lib", str(built),
        ],
        cwd=project, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert (built / "repro" / "core" / "kernels.py").is_file()
    assert (built / "repro" / "core" / "_kernels.c").is_file()

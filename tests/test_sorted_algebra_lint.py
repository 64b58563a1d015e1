"""Lint: the verdict tail does sorted-set algebra, nothing else.

Every block set between ``PrefixAccumulator.finalize`` and
``SnapshotDeltaStore.append`` is sorted-unique by construction, so the
tail's set algebra goes through the linear / ``searchsorted``
primitives of :mod:`repro.net.blocksets`.  This test keeps the
re-sorting, re-hashing numpy routines (and the unbuffered ``ufunc.at``)
out of the tail's modules: the one normalising fallback is
``as_sorted_unique`` in ``net/blocksets.py``, and the routines otherwise
survive only in tests, as oracles.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules that hold nothing but tail code.
TAIL_MODULES = (
    "core/stages.py",
    "core/refine.py",
    "core/snapshot.py",
    "core/snapshot_store.py",
    "core/online.py",
    "core/metatelescope.py",
    "core/ipv6_telescope.py",
    "datasets/liveness.py",
)
#: ``(module, class, function)`` where only one function is tail code.
TAIL_FUNCTIONS = (("core/accum.py", "PrefixAccumulator", "finalize"),)

FORBIDDEN = re.compile(
    r"\bnp\.(?:unique|isin|in1d|setdiff1d|intersect1d|union1d|setxor1d)\b"
    r"|\bnp\.\w+\.at\("
)
#: A histogram of verdict codes, not set algebra (``verdict_counts``).
ALLOWED_LINES = {
    "core/snapshot.py": {
        "codes, counts = np.unique(self.verdicts, return_counts=True)",
    },
}


def function_lines(module: str, owner: str, name: str) -> range:
    tree = ast.parse((SRC / module).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == owner:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == name:
                    return range(item.lineno, item.end_lineno + 1)
    raise AssertionError(f"{module}: {owner}.{name} not found")


def offending_lines():
    scopes = [(module, None) for module in TAIL_MODULES] + [
        (module, function_lines(module, owner, name))
        for module, owner, name in TAIL_FUNCTIONS
    ]
    offenders = []
    for module, lines in scopes:
        allowed = ALLOWED_LINES.get(module, set())
        for lineno, line in enumerate(
            (SRC / module).read_text().splitlines(), start=1
        ):
            stripped = line.strip()
            if lines is not None and lineno not in lines:
                continue
            if stripped.startswith("#") or stripped in allowed:
                continue
            if FORBIDDEN.search(stripped):
                offenders.append(f"src/repro/{module}:{lineno}: {stripped}")
    return offenders


def test_no_resorting_set_routines_in_the_verdict_tail():
    offenders = offending_lines()
    assert not offenders, (
        "set algebra on the verdict tail must go through the sorted "
        "primitives of repro.net.blocksets (as_sorted_unique, "
        "sorted_union / _difference / _intersection, align_sorted, "
        "sorted_member_mask):\n" + "\n".join(offenders)
    )


def test_lint_actually_catches_an_offender():
    # Guard the guard: the pattern must match the idioms the tail used
    # to contain, and the scopes must really cover code.
    for bad in (
        "dark = np.unique(np.asarray(dark_blocks, dtype=np.int64))",
        "hit = alive & np.isin(blocks, present)",
        "added = np.setdiff1d(serving, self._serving)",
        "common = np.intersect1d(self.blocks, older.blocks)",
        "upsert_blocks = np.union1d(fresh, common[changed_mask])",
        "for block in np.setxor1d(day_dark, previous_dark):",
        "np.logical_or.at(out, self.position, mask)",
    ):
        assert FORBIDDEN.search(bad), bad
    for fine in (
        "dark = as_sorted_unique(dark_blocks)",
        "positions, hit = align_sorted(self.blocks, older.blocks)",
        "return np.logical_or.reduceat(mask, self._starts)",
        "values = np.concatenate(parts)",
    ):
        assert not FORBIDDEN.search(fine), fine
    assert len(function_lines(*TAIL_FUNCTIONS[0])) > 10
    for module, allowed in ALLOWED_LINES.items():
        text = (SRC / module).read_text()
        assert all(line in text for line in allowed), module
    # The fallback the tail relies on is where it is claimed to be.
    assert "np.unique(values)" in (SRC / "net" / "blocksets.py").read_text()

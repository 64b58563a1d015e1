"""Turn a reach run's records into ``docs/unreached.txt``.

    python3 tools/reach/report.py OUT_DIR

``OUT_DIR`` holds the ``<pid>.txt`` files ``run.py`` left (one
``<path under src/repro>\\t<first line>`` per function a process
called).  Every function defined under ``src/repro`` that no process
called is unreached; a nested function is listed only when its
enclosing function was reached, and a declaration (a body of only a
docstring and ``...``, as in a ``Protocol``) has no code to reach.  ``docs/unreached.txt`` is rewritten
with one line per unreached function::

    <path under src/repro>:<qualified name>  <category>  <reason>

Categories and reasons are carried over from the file's previous
contents by ``path:name``.  A function that is newly unreached gets
category ``?``, and the command exits 1 naming it: delete it with its
tests, or give it a category and a reason.  A function that is reached
again drops out of the file.  So after a run, ``git diff`` of the file
is the change in dead code.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
LISTING = REPO / "docs" / "unreached.txt"
CATEGORIES = {
    "a": "safety code: checks outside input, handles errors, or recovers "
         "from a fault",
    "b": "the only path on a supported platform or for a supported input",
    "c": "tests use it as a reference: an oracle, a comparison, a fixture "
         "or a harness",
    "d": "reached by a CLI --scale the run cannot afford",
}
HEADER = [
    "# src/repro functions that no production entry point calls, each",
    "# kept for a stated reason.  Regenerate (about 10 minutes):",
    "#   python3 tools/reach/run.py /tmp/reach && python3 tools/reach/report.py /tmp/reach",
    "# Format: <path under src/repro>:<function>  <category>  <reason>",
    *(f"#   {key}: {text}" for key, text in CATEGORIES.items()),
]
UNREVIEWED = "?"


def declaration(function: ast.FunctionDef) -> bool:
    """Whether the body is only a docstring and/or ``...``."""
    return all(
        isinstance(statement, ast.Expr)
        and isinstance(statement.value, ast.Constant)
        and (isinstance(statement.value.value, str)
             or statement.value.value is Ellipsis)
        for statement in function.body
    )


def definitions(path: Path):
    """``(qualified name, first line, enclosing function or None)`` of
    every function in ``path``; the first line is the code object's (the
    first decorator's, if decorated)."""
    found = []

    def visit(node, prefix: str, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                if not declaration(child):
                    found.append((name, first, function))
                visit(child, name + ".", name)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", function)
            else:
                visit(child, prefix, function)

    visit(ast.parse(path.read_text()), "", None)
    return found


def reached(out: Path) -> set[tuple[str, int]]:
    calls = set()
    for record in out.glob("*.txt"):
        for line in record.read_text().splitlines():
            path, _, first = line.partition("\t")
            calls.add((path, int(first)))
    return calls


def unreached(calls: set[tuple[str, int]]) -> list[str]:
    """``path:name`` of every unreached function, in file then line order."""
    names = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        missed = set()
        for name, first, enclosing in definitions(path):
            if (module, first) in calls:
                continue
            missed.add(name)
            if enclosing is None or enclosing not in missed:
                names.append(f"{module}:{name}")
    return names


def previous(listing: Path) -> dict[str, tuple[str, str]]:
    """``path:name -> (category, reason)`` from the current listing."""
    kept = {}
    if listing.exists():
        for line in listing.read_text().splitlines():
            if line.strip() and not line.startswith("#"):
                name, category, reason = (line.split(None, 2) + ["", ""])[:3]
                kept[name] = (category, reason)
    return kept


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        raise SystemExit(__doc__)
    calls = reached(Path(argv[0]))
    if not calls:
        raise SystemExit(f"no reach records under {argv[0]}")
    kept = previous(LISTING)
    lines, unreviewed = [], []
    for name in unreached(calls):
        category, reason = kept.get(name, (UNREVIEWED, "unreviewed"))
        if category not in CATEGORIES:
            unreviewed.append(name)
        lines.append(f"{name}  {category}  {reason}")
    LISTING.write_text("\n".join(HEADER + lines) + "\n")
    print(f"{len(lines)} unreached function(s) -> {LISTING.relative_to(REPO)}")
    if unreviewed:
        print(
            "unreached and without a category (delete with their tests, or "
            "give a category a-d and a reason):\n  " + "\n  ".join(unreviewed),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Turn a reach run's records into ``docs/unreached.txt``.

    python3 tools/reach/report.py OUT_DIR

``OUT_DIR`` holds the ``<pid>.txt`` files ``run.py`` left: the functions,
lines and parameter value classes each process ran (see
``site/sitecustomize.py``).  ``docs/unreached.txt`` is rewritten with
two sections.

The first lists every function defined under ``src/repro`` that no
process called; a nested function is listed only when its enclosing
function was reached, and a declaration (a body of only a docstring and
``...``, as in a ``Protocol``) has no code to reach::

    <path under src/repro>:<qualified name>  <category>  <reason>

The second lists, per reached function, its never-executed arms and its
defaulted parameters that took a single value class::

    <path>:<function>  arm `<first line of the arm>`  <category>  <reason>
    <path>:<function>  param `<name>=<the one value class>`  <category>  <reason>

An arm is a maximal run of statements in one block (a body, an
``else``, a ``finally``) that never ran, inside a statement
that did.  Its key is the text of its first line, prefixed with its
block's header when the run starts the block (``if not views: return
...``), with `` [2]``, `` [3]`` on repeats within a function; so an
edit elsewhere in the file does not change it.  Arms that start with
``raise``, and everything inside ``except`` handlers, are safety code
(category a) and are not listed.  A parameter's key is its name.

Line numbers only mean something against the source the run traced:
``run.py`` records the sha256 of every file under ``src/repro`` in
``OUT_DIR/sources.sha256`` when it starts, and the report refuses (exit
1, the listing untouched) when any file was edited, added or removed
since, naming each one.  Rerun ``run.py`` on the edited tree.

Categories and reasons are carried over from the file's previous
contents by key.  An entry that is new gets category ``?``, and the
command exits 1 naming it: delete it with its tests, or give it a
category and a reason.  An entry that is reached again drops out of the
file.  So after a run, ``git diff`` of the file is the change in dead
code.
"""

from __future__ import annotations

import ast
import hashlib
import re
import sys
from collections import defaultdict
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
REGENERATE = [
    "# Regenerate (about 10 minutes):",
    "#   python3 tools/reach/run.py /tmp/reach && python3 tools/reach/report.py /tmp/reach",
]
HEADER = [
    "# src/repro functions that no production entry point calls, each",
    "# kept for a stated reason.",
    *REGENERATE,
    "# Format: <path under src/repro>:<function>  <category>  <reason>",
    *(f"#   {key}: {text}" for key, text in CATEGORIES.items()),
]
LINES_HEADER = [
    "",
    "# Section 2: in functions some entry point calls, the arms that never",
    "# ran and the defaulted parameters that only ever took one value class",
    "# (repr for None, bools, numbers and short strings; type and .name",
    "# otherwise), each kept for a stated reason.  Arms that start with",
    "# `raise` and `except` handlers are category a and not listed.",
    "# Format: <path>:<function>  arm `<first line>`  <category>  <reason>",
    "#         <path>:<function>  param `<name>=<value class>`  <category>  <reason>",
]
MANIFEST = "sources.sha256"
UNREVIEWED = "?"
ENTRY = re.compile(r"^(\S+)  (arm|param) `(.*?)`  (\S+)  (.*)$")
NEUTRAL = (ast.Global, ast.Nonlocal)
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
_KEY_CHARS = 80


def source_hashes(root: Path) -> dict[str, str]:
    """``path under root -> sha256`` of every file under ``root`` but
    compiled bytecode."""
    return {
        path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
    }


def write_manifest(out: Path, root: Path) -> None:
    """The hashes of ``root``'s files, as ``sha256sum`` prints them."""
    (out / MANIFEST).write_text("".join(
        f"{digest}  {name}\n" for name, digest in source_hashes(root).items()
    ))


def changed_sources(out: Path, root: Path) -> list[str]:
    """Files under ``root`` edited, added or removed since the run wrote
    its manifest."""
    manifest = out / MANIFEST
    if not manifest.exists():
        raise SystemExit(f"no {MANIFEST} under {out}: not a run.py record "
                         f"directory")
    before = {
        name: digest for digest, name in
        (line.split("  ", 1) for line in manifest.read_text().splitlines())
    }
    now = source_hashes(root)
    return sorted(name for name in before.keys() | now.keys()
                  if before.get(name) != now.get(name))


class Records:
    """What every process of a reach run recorded."""

    def __init__(self, out: Path) -> None:
        self.calls: set[tuple[str, int]] = set()
        self.lines: dict[str, set[int]] = defaultdict(set)
        self.values: dict[tuple[str, int, str], set[str]] = defaultdict(set)
        for record in out.glob("*.txt"):
            for line in record.read_text().splitlines():
                kind, path, *rest = line.split("\t")
                if kind == "F":
                    self.calls.add((path, int(rest[0])))
                elif kind == "L":
                    self.lines[path].add(int(rest[0]))
                elif kind == "P":
                    self.values[(path, int(rest[0]), rest[1])].add(rest[2])


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
    """``(qualified name, first line, enclosing function or None, node)``
    of every function in ``path``; the first line is the code object's
    (the first decorator's, if decorated)."""
    found = []

    def visit(node, prefix: str, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                if not declaration(child):
                    found.append((name, first, function, child))
                visit(child, name + ".", name)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", function)
            else:
                visit(child, prefix, function)

    visit(ast.parse(path.read_text()), "", None)
    return found


# -- section 1: functions ---------------------------------------------------


def unreached(calls: set[tuple[str, int]]) -> list[str]:
    """``path:name`` of every unreached function, in file then line order."""
    names = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        missed = set()
        for name, first, enclosing, _ in definitions(path):
            if (module, first) in calls:
                continue
            missed.add(name)
            if enclosing is None or enclosing not in missed:
                names.append(f"{module}:{name}")
    return names


# -- section 2: arms and parameters -----------------------------------------


def _neutral(statement: ast.stmt) -> bool:
    """Statements that compile to no line event: docstrings, ``...`` and
    other bare constants, ``global`` and ``nonlocal``."""
    return isinstance(statement, NEUTRAL) or (
        isinstance(statement, ast.Expr)
        and isinstance(statement.value, ast.Constant)
    )


def _blocks(statement: ast.stmt):
    """``(label, statements)`` of each block directly inside a compound
    statement; ``except`` handlers are left out."""
    if isinstance(statement, SCOPES):
        return
    for field in ("body", "orelse", "finalbody"):
        body = getattr(statement, field, None)
        if body:
            yield field, body


def _header_end(statement: ast.stmt) -> int:
    blocks = [body for _, body in _blocks(statement)]
    if not blocks:
        return statement.end_lineno
    return max(statement.lineno, blocks[0][0].lineno - 1)


def _first_line(statement: ast.stmt) -> int:
    decorators = getattr(statement, "decorator_list", [])
    return min([statement.lineno] + [d.lineno for d in decorators])


def _executed(statement: ast.stmt, hit: set[int]) -> bool:
    if any(line in hit for line in
           range(_first_line(statement), _header_end(statement) + 1)):
        return True
    return any(_executed(child, hit)
               for _, body in _blocks(statement) for child in body
               if not _neutral(child))


def _text(statement: ast.stmt, source: list[str]) -> str:
    """The statement's header (a simple statement's whole text) on one
    line, whitespace collapsed, cut at ``_KEY_CHARS``."""
    end = (statement.lineno if isinstance(statement, SCOPES)
           else _header_end(statement))
    text = " ".join(" ".join(source[statement.lineno - 1:end]).split())
    text = text.replace("`", "'")
    return text if len(text) <= _KEY_CHARS else text[:_KEY_CHARS - 3] + "..."


def _prefix(owner: ast.stmt | None, label: str, source: list[str]) -> str:
    if owner is None:
        return ""
    if label == "body":
        return _text(owner, source) + " "
    return {"orelse": "else: ", "finalbody": "finally: "}[label]


def arms(function: ast.FunctionDef, hit: set[int],
         source: list[str]) -> list[str]:
    """Keys of the never-executed arms of a reached function."""
    found = []

    def walk(owner, label, body) -> None:
        body = [statement for statement in body if not _neutral(statement)]
        index = 0
        while index < len(body):
            statement = body[index]
            if _executed(statement, hit):
                for child_label, child_body in _blocks(statement):
                    walk(statement, child_label, child_body)
                index += 1
                continue
            start = index
            while index < len(body) and not _executed(body[index], hit):
                index += 1
            if isinstance(statement, ast.Raise):
                continue
            lead = _prefix(owner, label, source) if start == 0 else ""
            # An elif is an If inside the orelse: its own text says "elif".
            if label == "orelse" and isinstance(owner, ast.If) and \
                    len(body) == 1 and isinstance(statement, ast.If):
                lead = ""
            found.append(lead + _text(statement, source))

    walk(None, "body", function.body)
    keys, counts = [], defaultdict(int)
    for key in found:
        counts[key] += 1
        keys.append(key if counts[key] == 1 else f"{key} [{counts[key]}]")
    return keys


def defaulted(function: ast.FunctionDef) -> list[str]:
    """Names of the parameters that have a default."""
    arguments = function.args
    positional = arguments.posonlyargs + arguments.args
    names = [arg.arg for arg in positional[len(positional)
                                           - len(arguments.defaults):]]
    names += [arg.arg for arg, default in
              zip(arguments.kwonlyargs, arguments.kw_defaults)
              if default is not None]
    return names


def unexercised(records: Records) -> list[tuple[str, str, str]]:
    """``(path:name, kind, key text)`` of every never-executed arm and
    never-varied defaulted parameter of a reached function."""
    entries = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        source = path.read_text().splitlines()
        hit = records.lines.get(module, set())
        for name, first, _, node in definitions(path):
            if (module, first) not in records.calls:
                continue
            where = f"{module}:{name}"
            for key in arms(node, hit, source):
                entries.append((where, "arm", key))
            for parameter in defaulted(node):
                seen = records.values.get((module, first, parameter), set())
                if len(seen) == 1:
                    entries.append((where, "param",
                                    f"{parameter}={next(iter(seen))}"))
    return entries


def _param_key(text: str) -> str:
    return text.partition("=")[0]


# -- the listing ------------------------------------------------------------


def previous(listing: Path):
    """``key -> (category, reason)`` for both sections of the listing."""
    kept = {}
    if listing.exists():
        for line in listing.read_text().splitlines():
            if not line.strip() or line.startswith("#"):
                continue
            entry = ENTRY.match(line)
            if entry:
                where, kind, text, category, reason = entry.groups()
                if kind == "param":
                    text = _param_key(text)
                kept[(where, kind, text)] = (category, reason)
            else:
                name, category, reason = (line.split(None, 2) + ["", ""])[:3]
                kept[name] = (category, reason)
    return kept


def render(records: Records, kept) -> tuple[list[str], list[str], int, int]:
    """The listing's lines, the unreviewed keys, and the two sections'
    entry counts."""
    lines, unreviewed = list(HEADER), []
    functions = unreached(records.calls)
    for name in functions:
        category, reason = kept.get(name, (UNREVIEWED, "unreviewed"))
        if category not in CATEGORIES:
            unreviewed.append(name)
        lines.append(f"{name}  {category}  {reason}")
    lines += LINES_HEADER
    entries = unexercised(records)
    for where, kind, text in entries:
        key = (where, kind, _param_key(text) if kind == "param" else text)
        category, reason = kept.get(key, (UNREVIEWED, "unreviewed"))
        if category not in CATEGORIES:
            unreviewed.append(f"{where}  {kind} `{text}`")
        lines.append(f"{where}  {kind} `{text}`  {category}  {reason}")
    return lines, unreviewed, len(functions), len(entries)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        raise SystemExit(__doc__)
    out = Path(argv[0])
    changed = changed_sources(out, SRC)
    if changed:
        print(
            "src/repro changed since the run started, so its line records "
            "no longer match the source (rerun run.py):\n  "
            + "\n  ".join(changed),
            file=sys.stderr,
        )
        return 1
    records = Records(out)
    if not records.calls:
        raise SystemExit(f"no reach records under {argv[0]}")
    lines, unreviewed, functions, entries = render(records, previous(LISTING))
    LISTING.write_text("\n".join(lines) + "\n")
    print(f"{functions} unreached function(s), {entries} unexercised arm(s) "
          f"and parameter(s) -> {LISTING.relative_to(REPO)}")
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

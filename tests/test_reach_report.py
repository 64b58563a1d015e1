"""``tools/reach/report.py`` over a synthetic module and record directory.

The report turns a reach run's function, line and parameter records into
``docs/unreached.txt``.  These tests build a one-module source tree and
the records a run over it would leave, then check the listing: never-run
arms are grouped and keyed by their text, ``raise`` arms and ``except``
handlers are left out, keys do not move when unrelated lines are
inserted, an entry without a category fails the command, and so does a
source edited after the run wrote its manifest.
"""

import importlib.util
from pathlib import Path

import pytest

REPORT = Path(__file__).resolve().parent.parent / "tools" / "reach" / "report.py"

SOURCE = '''\
def reached(x, mode="a", spare=None, *, scale=1.0):
    """Docstrings run no line."""
    if x:
        y = 1
        y += 1
    else:
        z = 0
        return z
    if mode == "b":
        raise ValueError("no")
    try:
        y = 2
    except ValueError:
        y = 3
    return y * scale


def never(x):
    return x
'''
#: Lines of SOURCE a run over it executes (1-based): ``if x`` true,
#: ``mode`` never ``"b"``, the ``try`` body never raising.
EXECUTED = (
    "if x:", "y = 1", "y += 1", 'if mode == "b":', "try:", "y = 2",
    "return y * scale",
)


@pytest.fixture()
def report(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("reach_report", REPORT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "SRC", tmp_path / "src" / "repro")
    monkeypatch.setattr(module, "LISTING", tmp_path / "unreached.txt")
    monkeypatch.setattr(module, "REPO", tmp_path)
    return module


def write_tree(report, source: str, records: Path) -> None:
    """The module as ``src/repro/mod.py``, the run's source manifest and
    one process's records."""
    report.SRC.mkdir(parents=True, exist_ok=True)
    (report.SRC / "mod.py").write_text(source)
    records.mkdir(exist_ok=True)
    report.write_manifest(records, report.SRC)
    lines = source.splitlines()
    first = next(i for i, line in enumerate(lines, 1) if "def reached" in line)
    hit = [
        number for number, line in enumerate(lines, 1)
        if line.strip() in EXECUTED
    ]
    (records / "1.txt").write_text(
        f"F\tmod.py\t{first}\n"
        + "".join(f"L\tmod.py\t{number}\n" for number in hit)
        + "".join(
            f"P\tmod.py\t{first}\t{name}\t{value}\n"
            for name, value in [("x", "True"), ("x", "False"), ("mode", "'a'"),
                                ("spare", "None"), ("scale", "1.0")]
        )
    )


def entries(report) -> list[str]:
    return [
        line for line in report.LISTING.read_text().splitlines()
        if line and not line.startswith("#")
    ]


def test_arms_are_grouped_and_safety_arms_skipped(report, tmp_path):
    write_tree(report, SOURCE, tmp_path / "records")
    assert report.main([str(tmp_path / "records")]) == 1
    assert entries(report) == [
        "mod.py:never  ?  unreviewed",
        # One entry for the two-statement else arm, keyed by its text;
        # the raise arm and the except handler are not listed.
        "mod.py:reached  arm `else: z = 0`  ?  unreviewed",
        # x took two values and has no default: not listed.
        "mod.py:reached  param `mode='a'`  ?  unreviewed",
        "mod.py:reached  param `spare=None`  ?  unreviewed",
        "mod.py:reached  param `scale=1.0`  ?  unreviewed",
    ]


def test_categories_carry_over_and_survive_inserted_lines(report, tmp_path):
    write_tree(report, SOURCE, tmp_path / "records")
    report.main([str(tmp_path / "records")])
    reviewed = report.LISTING.read_text().replace(
        "?  unreviewed", "b  kept for a reason"
    )
    report.LISTING.write_text(reviewed)
    # An unrelated edit above moves every line; the keys stay put.
    shifted = "import os\n\n# a comment\n\n" + SOURCE
    write_tree(report, shifted, tmp_path / "shifted")
    assert report.main([str(tmp_path / "shifted")]) == 0
    assert report.LISTING.read_text() == reviewed


def test_uncategorised_entry_exits_1(report, tmp_path, capsys):
    write_tree(report, SOURCE, tmp_path / "records")
    report.main([str(tmp_path / "records")])
    report.LISTING.write_text(
        report.LISTING.read_text()
        .replace("?  unreviewed", "c  a test reference")
        .replace("arm `else: z = 0`  c  a test reference",
                 "arm `else: z = 0`  ?  unreviewed")
    )
    capsys.readouterr()
    assert report.main([str(tmp_path / "records")]) == 1
    assert "mod.py:reached  arm `else: z = 0`" in capsys.readouterr().err


def test_reached_arm_drops_out(report, tmp_path):
    write_tree(report, SOURCE, tmp_path / "records")
    report.main([str(tmp_path / "records")])
    with open(tmp_path / "records" / "1.txt", "a") as records:
        for number, line in enumerate(SOURCE.splitlines(), 1):
            if line.strip() in ("z = 0", "return z"):
                records.write(f"L\tmod.py\t{number}\n")
    report.main([str(tmp_path / "records")])
    assert not any("arm" in entry for entry in entries(report))


@pytest.mark.parametrize("edit", ["edited", "added", "removed"])
def test_source_changed_since_the_run_is_refused(report, tmp_path, capsys,
                                                 edit):
    # The run's line numbers belong to the source it traced: an edit
    # made since then is named, and the listing is left as it was.
    (report.SRC / "pkg").mkdir(parents=True)
    (report.SRC / "pkg" / "other.py").write_text("X = 1\n")
    write_tree(report, SOURCE, tmp_path / "records")
    assert report.main([str(tmp_path / "records")]) == 1
    listing = report.LISTING.read_text()
    if edit == "edited":
        (report.SRC / "mod.py").write_text("import os\n" + SOURCE)
        named = "mod.py"
    elif edit == "added":
        (report.SRC / "pkg" / "new.py").write_text("Y = 2\n")
        named = "pkg/new.py"
    else:
        (report.SRC / "pkg" / "other.py").unlink()
        named = "pkg/other.py"
    capsys.readouterr()
    assert report.main([str(tmp_path / "records")]) == 1
    err = capsys.readouterr().err
    assert f"\n  {named}" in err and "unreviewed" not in err
    assert report.LISTING.read_text() == listing


def test_bytecode_is_not_source(report, tmp_path):
    write_tree(report, SOURCE, tmp_path / "records")
    (report.SRC / "__pycache__").mkdir()
    (report.SRC / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"\0")
    assert report.changed_sources(tmp_path / "records", report.SRC) == []

"""The ``serve`` and ``query`` commands, driven the way an operator does.

``serve`` runs as a real subprocess on an ephemeral port; the bound URL
is read from its own stdout and readiness is ``/healthz`` answering —
nothing here waits a fixed time.  One fold is paid for: the world run
saves its snapshot, the fleet run serves that file, and both must
answer every probe exactly as the saved artifact reads.
"""

from __future__ import annotations

import contextlib
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core.snapshot import ClassificationSnapshot
from tests.service.test_atomic_swap import stamped_snapshot

BOOT_TIMEOUT = 120.0
_SRC = str(Path(repro.__file__).resolve().parents[1])


def _default_sigint() -> None:
    # A harness that runs pytest with SIGINT ignored would hand that on
    # to the child, which then could not be stopped the operator's way.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


@contextlib.contextmanager
def serving(*flags: str):
    """``python -m repro serve --port 0 <flags>``; yields its base URL.

    On exit the server gets the operator's Ctrl-C and must drain and
    return 0; ``--exit-after`` only bounds a run the test lost track of.
    """
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--exit-after", "300", *flags],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ, "PYTHONPATH": _SRC}, preexec_fn=_default_sigint,
        start_new_session=True,  # so a lost fleet can be killed as a group
    )
    lines: queue.Queue[str | None] = queue.Queue()

    def pump() -> None:
        for line in process.stdout:
            lines.put(line)
        lines.put(None)  # EOF: the server closed stdout (it exited)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    log: list[str] = []
    try:
        deadline = time.monotonic() + BOOT_TIMEOUT
        url = None
        while url is None:
            line = lines.get(timeout=max(0.1, deadline - time.monotonic()))
            assert line is not None, f"serve exited early:\n{''.join(log)}"
            log.append(line)
            found = re.search(r"meta-telescope (?:service|fleet).* on "
                              r"(http://\S+)", line)
            url = found.group(1) if found else None
        while not _healthy(url):
            assert time.monotonic() < deadline, f"never healthy: {url}"
            time.sleep(0.02)
        yield url, log
        process.send_signal(signal.SIGINT)
        assert process.wait(timeout=60) == 0, "".join(log)
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait(timeout=30)
        reader.join(timeout=30)
        process.stdout.close()


def fetch(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as reply:
        return json.loads(reply.read())


def _healthy(url: str) -> bool:
    try:
        return bool(fetch(url + "/healthz")["serving"])
    except OSError:
        return False


def query(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(["query", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_serve_saves_what_it_serves_and_a_fleet_serves_it_again(
    tmp_path, capsys
):
    saved = tmp_path / "snapshot.fpk"
    with serving("--scale", "micro", "--days", "3",
                 "--save-snapshot", str(saved)) as (url, log):
        folds = [line for line in log if line.startswith("day ")]
        assert len(folds) == 3, log
        for day, line in enumerate(folds):
            assert line.startswith(f"day {day}: published v{day + 1} ("), line
        assert f"wrote snapshot to {saved}\n" in log
        snapshot = ClassificationSnapshot.open(saved)
        dark = set(snapshot.dark_blocks.tolist())
        assert dark and snapshot.version == 3

        replies = {}
        for argv in (
            ["health"],
            ["snapshot"],
            ["range", "--start", "0", "--end", "16777215", "--limit", "5"],
            ["diff", "--since", "1"],
        ):
            code, out, _ = query(capsys, *argv, "--url", url)
            assert code == 0, (argv, out)
            replies[argv[0]] = json.loads(out)  # well-formed or it raises
        assert replies["health"]["serving"] is True
        assert replies["snapshot"]["version"] == snapshot.version
        assert len(replies["range"]["rows"]) == 5
        assert replies["diff"]["base_retained"] is True
        code, out, _ = query(capsys, "point", "--url", url)  # no target
        assert code == 1 and "error" in json.loads(out)

        stride = max(1, len(snapshot) // 64)
        probes = [int(block) for block in snapshot.blocks[::stride]]
        probes.append(int(snapshot.blocks[-1]) + 1)  # never classified
        assert len(probes) >= 64
        answers = {
            block: fetch(f"{url}/v1/point?block={block}") for block in probes
        }
        for block, answer in answers.items():
            assert answer["dark"] == (block in dark), answer
            assert answer["snapshot_version"] == snapshot.version

    with serving("--snapshot", str(saved), "--processes", "2",
                 "--fleet-root", str(tmp_path / "fleet")) as (url, log):
        assert any(line.startswith(f"serving {saved}: ") for line in log)
        # The supervisor re-stamps what it publishes: a fresh fleet
        # serves the saved rows as its version 1.
        for block in probes:
            answer = fetch(f"{url}/v1/point?block={block}")
            assert answer == dict(answers[block], snapshot_version=1)


def _gone(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    # An orphan waits for init to reap it; a container's may never.
    return stat.rpartition(")")[2].split()[0] == "Z"


@pytest.mark.parametrize("how", [signal.SIGTERM, signal.SIGKILL])
def test_a_killed_fleet_supervisor_leaves_no_worker_behind(tmp_path, how):
    """SIGTERM leaves through ``_serve_fleet``'s ``finally``; SIGKILL
    runs nothing, and the workers see their wake pipes close."""
    saved, root = tmp_path / "snapshot.fpk", tmp_path / "fleet"
    stamped_snapshot(1).save(saved)
    with open(tmp_path / "serve.log", "w") as log:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--exit-after", "300", "--snapshot", str(saved),
             "--processes", "2", "--fleet-root", str(root)],
            stdout=log, stderr=subprocess.STDOUT,
            env={**os.environ, "PYTHONPATH": _SRC},
            start_new_session=True,
        )
    try:
        ready = [root / f"worker-{index}.json" for index in range(2)]
        deadline = time.monotonic() + BOOT_TIMEOUT
        while not all(path.exists() for path in ready):
            assert process.poll() is None, (tmp_path / "serve.log").read_text()
            assert time.monotonic() < deadline
            time.sleep(0.02)
        pids = [json.loads(path.read_text())["pid"] for path in ready]
        assert not any(_gone(pid) for pid in pids)
        process.send_signal(how)
        code = process.wait(timeout=30)
        assert code == (0 if how == signal.SIGTERM else -how)
        deadline = time.monotonic() + 5
        while not all(_gone(pid) for pid in pids):
            assert time.monotonic() < deadline, "workers outlived it"
            time.sleep(0.02)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
        process.wait(timeout=30)


def test_query_against_a_dead_url_fails_with_a_message(capsys):
    code, out, err = query(
        capsys, "health", "--url", "http://127.0.0.1:9", "--timeout", "2"
    )
    assert code == 1 and out == ""
    assert err.startswith("cannot reach http://127.0.0.1:9: ")

"""Record which ``src/repro`` functions a process calls.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that holds one, so putting this directory on ``PYTHONPATH`` hooks
every interpreter a run starts: the command itself, ``spawn`` workers
and any subprocess that inherits the environment.  With
``REACH_DIR=<dir>`` set, a ``sys.setprofile`` / ``threading.setprofile``
hook appends ``<path under src/repro>\\t<first line>`` to
``<dir>/<pid>.txt`` the first time each function runs.  Lines go out
with one unbuffered ``os.write`` each, so a process that ends in
``os._exit`` (a forked pool worker) or a signal loses nothing, and a
forked child reopens the file under its own pid.  Without ``REACH_DIR``
nothing is installed.
"""

import os
import sys
import threading


def _install(out_dir: str) -> None:
    root = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))),
        "src", "repro", "",
    )
    seen = set()
    state = {}

    def reopen() -> None:
        state["fd"] = os.open(
            os.path.join(out_dir, f"{os.getpid()}.txt"),
            os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644,
        )

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in seen:
            return
        seen.add(code)
        if code.co_filename.startswith(root):
            path = code.co_filename[len(root):]
            os.write(state["fd"], f"{path}\t{code.co_firstlineno}\n".encode())

    reopen()
    os.register_at_fork(after_in_child=reopen)
    threading.setprofile(profile)
    sys.setprofile(profile)


if os.environ.get("REACH_DIR"):
    _install(os.environ["REACH_DIR"])

"""Record which ``src/repro`` functions, lines and parameter values a
process runs.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that holds one, so putting this directory on ``PYTHONPATH`` hooks
every interpreter a run starts: the command itself, ``spawn`` workers
and any subprocess that inherits the environment.  With
``REACH_DIR=<dir>`` set, a ``sys.settrace`` / ``threading.settrace``
hook traces the frames of code under ``src/repro`` (and nothing else)
and appends tab-separated records to ``<dir>/<pid>.txt``:

* ``F <path> <first line>`` the first time a function runs;
* ``L <path> <line>`` the first time a line runs;
* ``P <path> <first line> <parameter> <value class>`` for the first two
  value classes each parameter of a function takes.  A value's class is
  its ``repr`` for None, bools, numbers and strings of up to 40
  characters, and its type name plus its ``.name`` (if a string)
  otherwise, so ``Family.IPV4`` and ``Family.IPV6`` differ; a second
  class is enough to tell a parameter varies, so later ones are not
  written.

Records go out with one unbuffered ``os.write`` each, so a process that
ends in ``os._exit`` (a forked pool worker) or a signal loses nothing,
and a forked child reopens the file under its own pid.  Dataclass
``__init__``\\ s are generated code outside ``src/repro``, so their
fields are not recorded as parameters.  Without ``REACH_DIR`` nothing is
installed.
"""

import numbers
import os
import sys
import threading

_SHORT = 40


def _value_class(value) -> str:
    if value is None or type(value) in (bool, int, float):
        return repr(value)
    if isinstance(value, str):
        return repr(value) if len(value) <= _SHORT else "str"
    if isinstance(value, numbers.Number):
        return repr(value)
    kind = type(value).__qualname__
    try:
        name = getattr(value, "name", None)
    except Exception:
        name = None
    return f"{kind}:{name}" if isinstance(name, str) else kind


def _install(out_dir: str) -> None:
    root = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))),
        "src", "repro", "",
    )
    codes = {}  # code -> its path under src/repro, or None outside it
    lines = set()
    values = {}  # (code, parameter) -> first value class, or None once varied
    state = {}

    def reopen() -> None:
        state["fd"] = os.open(
            os.path.join(out_dir, f"{os.getpid()}.txt"),
            os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644,
        )

    def write(record: str) -> None:
        os.write(state["fd"], record.encode())

    def local(frame, event, arg):
        if event == "line":
            key = (frame.f_code, frame.f_lineno)
            if key not in lines:
                lines.add(key)
                write(f"L\t{codes[frame.f_code]}\t{frame.f_lineno}\n")
        return local

    def call(frame, event, arg):
        code = frame.f_code
        path = codes.get(code, False)
        if path is False:
            filename = code.co_filename
            path = filename[len(root):] if filename.startswith(root) else None
            codes[code] = path
            if path is not None:
                write(f"F\t{path}\t{code.co_firstlineno}\n")
        if path is None:
            return None
        names = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
        if names:
            local_values = frame.f_locals
            for name in names:
                key = (code, name)
                first = values.get(key, False)
                if first is None or name not in local_values:
                    continue
                seen = _value_class(local_values[name])
                if first is False or seen != first:
                    values[key] = seen if first is False else None
                    write(f"P\t{path}\t{code.co_firstlineno}\t{name}\t"
                          f"{seen.replace(chr(9), ' ').replace(chr(10), ' ')}\n")
        return local

    reopen()
    os.register_at_fork(after_in_child=reopen)
    threading.settrace(call)
    sys.settrace(call)


if os.environ.get("REACH_DIR"):
    _install(os.environ["REACH_DIR"])

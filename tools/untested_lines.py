"""List the lines of ``src/mfctrl`` that no test runs.

Run from the repository root, with any pytest arguments::

    python3 tools/untested_lines.py
    python3 tools/untested_lines.py tests/test_measure.py -q

pytest runs in this process with the checkout's ``src`` first on
``sys.path`` and a line tracer on every thread, set before ``mfctrl`` is
first imported, so lines run at import count.  Afterwards every executable
line of ``src/mfctrl`` that never ran is printed as ``file:line: source``,
then each file's count and the total.  The tool exits with pytest's status.

Lines run only in child processes are not seen, so they are listed too:
those of the CLI tests that start ``python -m mfctrl.cli`` and of the
``tools/`` tests, for instance.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "mfctrl")


def executable_lines(path: str) -> set:
    """The numbers of the lines of ``path`` that some instruction of its code is on."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, _, line in co.co_lines() if line is not None)
        todo.extend(c for c in co.co_consts if isinstance(c, type(code)))
    return lines


def traced(run):
    """``run()`` under a line tracer on every thread: its result, and the
    lines run of each file of the package, by real path."""
    hits = defaultdict(set)
    local_of = {}   # co_filename -> the file's local tracer, or None off the package

    def local_for(seen):
        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in local_of:
            real = os.path.realpath(name)
            local_of[name] = (local_for(hits[real]) if real.startswith(PACKAGE + os.sep)
                              else None)
        local = local_of[name]
        if local is not None:
            local(frame, "line", arg)   # the first line of the code object
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        return run(), hits
    finally:
        sys.settrace(None)
        threading.settrace(None)


def main(argv) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest
    status, hits = traced(lambda: pytest.main(argv))
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        path = os.path.join(PACKAGE, name)
        if not name.endswith(".py"):
            continue
        missed = sorted(executable_lines(path) - hits[path])
        with open(path) as fh:
            source = fh.read().splitlines()
        rel = os.path.relpath(path, ROOT)
        for line in missed:
            print(f"{rel}:{line}: {source[line - 1].strip()}")
        if missed:
            print(f"{rel}: {len(missed)} lines never run")
        total += len(missed)
    print(f"{total} lines never run in this process; lines run only in child processes "
          f"(the CLI subprocess tests, the tools/ tests) are listed too")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

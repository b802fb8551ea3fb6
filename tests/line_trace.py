"""Which lines inside the package's functions does the test suite never run?

Runs pytest in this process under ``sys.settrace`` (and
``threading.settrace``), records the lines executed in frames whose code
lives in ``src/cluster_loc``, and prints, per function, the lines that never
ran.  Only lines inside functions, methods, lambdas and comprehensions
count: module-level lines and class bodies run at import, which may happen
before the tracer starts, so they are skipped.  Code run in a child process
(the command-line tests that start one) is not seen.  No coverage package is
needed.

    PYTHONPATH=src python tests/line_trace.py            # all of tests/
    PYTHONPATH=src python tests/line_trace.py tests/test_linalg.py -x

Extra arguments go to pytest as they are.  Tracing makes the suite several
times slower.  The exit status is pytest's.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "cluster_loc"
CO_OPTIMIZED = 0x1   # set on function code, unset on module and class bodies


def function_lines(path: Path) -> dict[int, str]:
    """line -> qualified name of the innermost function, for every line
    that has code inside a function of the module at ``path``."""
    out: dict[int, str] = {}

    def walk(code, inside: bool):
        if inside:
            for _, _, line in code.co_lines():
                if line is not None and line != code.co_firstlineno:
                    out[line] = code.co_qualname
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const, bool(const.co_flags & CO_OPTIMIZED))

    walk(compile(path.read_text(), str(path), "exec"), False)
    return out


def main(argv: list[str]) -> int:
    root = str(SRC.resolve())
    seen: dict[str, set[int]] = {}
    ours: dict[str, str | None] = {}   # co_filename -> resolved path or None

    def local(frame, event, arg):
        if event == "line":
            seen[ours[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            path = str(Path(name).resolve())
            ours[name] = path if path.startswith(root) else None
            if ours[name]:
                seen.setdefault(path, set())
        return local if ours[name] else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or [str(TESTS), "-q", "-p",
                                      "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = unrun = 0
    for path in sorted(SRC.glob("*.py")):
        lines = function_lines(path)
        ran = seen.get(str(path.resolve()), set())
        missed = sorted(set(lines) - ran)
        total += len(lines)
        unrun += len(missed)
        text = path.read_text().splitlines()
        for line in missed:
            print(f"{path.name}:{line} ({lines[line]}): "
                  f"{text[line - 1].strip()}")
    print(f"{unrun} of {total} lines inside functions in {SRC.name} unrun")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

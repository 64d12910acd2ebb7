"""Report the lines of src/geoforge that the test suite never runs.

Usage, from the repository root (extra arguments go to pytest):

    python tests/untested_lines.py [pytest arguments]

It runs pytest in this process under a line tracer that follows only
frames of src/geoforge, and prints, per module, the executable lines
(those of any code object compiled from the module) that no test ran.
Hypothesis replaces the tracer while it runs a test, so the tracer is
installed again at the start of each test's call phase; without that,
lines that later tests do run are reported.  Code run in subprocesses is
not seen.  Tracing makes the suite about four times slower.  The file is
not named test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "geoforge"


class LineTracer:
    """A sys.settrace tracer that records, per file, the lines run in
    frames of files whose path starts with `prefix`; as a pytest plugin it
    installs itself again at the start of each test's call phase."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.ran: dict = {}

    def trace(self, frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(self.prefix):
            return None
        self.ran.setdefault(name, set()).add(frame.f_lineno)
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.ran[frame.f_code.co_filename].add(frame.f_lineno)
        return self._line

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        sys.settrace(self.trace)


def executable_lines(path: Path) -> set:
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        # a module's code starts at line 0, which holds no source
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _spans(lines) -> str:
    """Sorted line numbers with runs of consecutive ones as a-b."""
    spans = []
    for line in sorted(lines):
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in spans)


def main(args) -> int:
    tracer = LineTracer(str(PACKAGE) + "/")
    sys.settrace(tracer.trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args], plugins=[tracer])
    finally:
        sys.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        unrun = executable_lines(path) - tracer.ran.get(str(path), set())
        total += len(unrun)
        if unrun:
            print("%s: %d: %s" % (path.relative_to(ROOT), len(unrun), _spans(unrun)))
    print("%d executable lines never ran" % total)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or [str(ROOT / "tests")]))

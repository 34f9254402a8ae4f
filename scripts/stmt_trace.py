#!/usr/bin/env python3
"""Statement trace of the test suite: run pytest in this process under
``sys.settrace`` and ``threading.settrace``, then print each executable line
of ``src/scene_sim`` that never ran, as ``path:line: source``, and a summary.

    python scripts/stmt_trace.py [pytest arguments]   (default: -q tests)

Uses only the standard library. A line is executable when it starts a
bytecode line of its file's compiled code (``dis.findlinestarts``), as the
stdlib ``trace`` module counts them. Code that runs only in a subprocess,
such as ``python -m scene_sim`` in ``tests/test_scripts.py``, shows as never
run. The exit code is pytest's.
"""

import dis
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "scene_sim"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that start bytecode in any code object of ``path``."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """pytest's exit code for ``args`` and the lines of each ``src`` file
    that ran under it."""
    import pytest

    ran = {path: set() for path in SRC.glob("*.py")}
    local_tracers = {}  # co_filename -> line tracer of its src file, or None

    def line_tracer(hits):
        def trace_lines(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return trace_lines
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in local_tracers:
            path = Path(name).resolve()
            local_tracers[name] = line_tracer(ran[path]) if path in ran else None
        return local_tracers[name]

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    code, ran = run_traced(sys.argv[1:] or ["-q", str(ROOT / "tests")])
    total = missed = 0
    for path in sorted(ran):
        lines = executable_lines(path)
        source = path.read_text().splitlines()
        total += len(lines)
        for line in sorted(lines - ran[path]):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} executable src lines never ran (pytest exit code {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())

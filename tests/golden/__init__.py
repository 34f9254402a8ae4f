"""Golden outputs: the bytes each shipped command writes, recorded once and
compared on every tier-1 run by ``tests/test_golden.py``.

Each case runs one or more commands, each into a fresh directory. The
expected files of a case live in ``tests/golden/<case>/``: the files the
command writes, and its stdout as ``stdout.txt`` with the output directory
spelled ``<out>``. Every command of a case (a sweep at ``--threads`` 1 and 2)
must write the same files. ``manifest.json`` lists each case's commands and
files, and the numpy version and platform they were recorded on.

A change meant to move an output re-records, and says why:

    PYTHONPATH=src python -m tests.golden --record
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import runpy
import sys
import tempfile
from pathlib import Path

import numpy as np

from scene_sim import cli

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parent.parent
MANIFEST = GOLDEN / "manifest.json"
STDOUT = "stdout.txt"


def _sweep(config: str) -> list[list[str]]:
    return [["sweep", "--config", config, "--threads", str(t)] for t in (1, 2)]


# case -> its commands, paths relative to the repository root. A command whose
# first word is a .py file runs that script, else the scene-sim CLI; each gets
# its ``--out`` from the runner.
CASES: dict[str, list[list[str]]] = {
    "sweep": _sweep("configs/sweep.json"),
    "sweep_diag": _sweep("perfbench/configs/sweep_diag.json"),
    "sweep_super_both": _sweep("perfbench/configs/sweep_super_both.json"),
    "sweep_corr": _sweep("tests/golden/sweep_corr.json"),
    "sweep_super_corr": _sweep("tests/golden/sweep_super_corr.json"),
    "round": [["round", "--config", "configs/round.json"]],
    "crossover": [["crossover", "--config", "configs/crossover.json"]],
    "crossover_map": [["crossover", "--config", "configs/crossover_map.json"]],
    "fd": [["fd", "--config", "configs/fd.json"]],
    "fd_budget": [["scripts/fd_budget.py", "--seeds", "2"]],
}


def run(command: list[str], out_dir: Path) -> None:
    """Run ``command`` in this process with its outputs in ``out_dir``, and
    write its stdout there as ``stdout.txt``, with ``out_dir`` as ``<out>``."""
    argv = [str(ROOT / a) if (ROOT / a).is_file() else a for a in command]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if argv[0].endswith(".py"):
            saved, sys.argv = sys.argv, [*argv, "--out", str(out_dir / "fd_budget.csv")]
            try:
                runpy.run_path(argv[0], run_name="__main__")
            finally:
                sys.argv = saved
        elif cli.main([*argv, "--out", str(out_dir)]) != 0:
            raise RuntimeError(f"{' '.join(command)} failed")
    (out_dir / STDOUT).write_text(buf.getvalue().replace(str(out_dir), "<out>"))


def outputs(out_dir: Path) -> dict[str, bytes]:
    """The files in ``out_dir`` by name."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def first_difference(name: str, expected: bytes, got: bytes) -> str:
    """Where ``got`` first departs from ``expected``: the file and its first
    differing line."""
    want, have = expected.decode().splitlines(), got.decode().splitlines()
    for i, (a, b) in enumerate(zip(want, have), 1):
        if a != b:
            return f"{name} line {i}:\n  expected {a!r}\n  got      {b!r}"
    return f"{name}: {len(want)} lines expected, {len(have)} written"


def record() -> None:
    """Run every case and write its files and the manifest."""
    manifest = {"numpy": np.__version__, "platform": platform.platform(),
                "python": platform.python_version(), "cases": {}}
    for case, commands in CASES.items():
        files = None
        for command in commands:
            with tempfile.TemporaryDirectory() as tmp:
                run(command, Path(tmp))
                written = outputs(Path(tmp))
            if files is not None and written != files:
                raise RuntimeError(f"{case}: {' '.join(command)} writes other bytes")
            files = written
        target = GOLDEN / case
        target.mkdir(exist_ok=True)
        for old in target.iterdir():
            old.unlink()
        for name, data in files.items():
            (target / name).write_bytes(data)
        manifest["cases"][case] = {"commands": [" ".join(c) for c in commands],
                                  "files": sorted(files)}
        print(f"{case}: {', '.join(sorted(files))}")
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")

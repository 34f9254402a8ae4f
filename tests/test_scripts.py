"""Smoke tests of the experiment scripts: each runs in a subprocess at a tiny
size, exits 0 and writes a CSV headed like the library's own exports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from scene_sim.analysis import CROSSOVER_CSV_HEADER
from scene_sim.fd import FD_CSV_HEADER
from scene_sim.montecarlo import CSV_HEADER

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, out, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), "--out", str(out), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return out.read_text().splitlines()


@pytest.mark.parametrize(
    "name, args, header",
    [
        ("fd_budget.py", ["--budget", 16, "--reps", 1, 4, "--seeds", 1, "--clients", 2],
         FD_CSV_HEADER),
        ("variance_sweep.py", ["--trials", 200, "--devices", 3], CSV_HEADER),
        ("crossover_map.py", ["--fit-c-nc", "--budgets", 20, 40], CROSSOVER_CSV_HEADER),
    ],
    ids=["fd_budget", "variance_sweep", "crossover_map"],
)
def test_script_runs_and_writes_library_header(tmp_path, name, args, header):
    lines = run_script(name, tmp_path / "out.csv", *args)
    assert lines[0] == header
    assert len(lines) > 1


def test_fd_budget_reruns_byte_identical(tmp_path):
    args = ["--budget", 16, "--reps", 2, "--seeds", 2, "--clients", 2]
    first = run_script("fd_budget.py", tmp_path / "a.csv", *args)
    assert first == run_script("fd_budget.py", tmp_path / "b.csv", *args)
    assert len(first) == 3  # header + one row per (S, seed)

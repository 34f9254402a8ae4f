"""The benchmark's workloads run the program through ``scene_sim.cli.main``
and ``scene_sim.run_fd``, and their checks call ``scene_sim.analysis``. A
simplification that deletes or renames a name one of them reads breaks every
benchmark run, so run each workload's unit twice and its checks at tiny
sizes: no operation may fail."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

# Small overrides of each workload's config section. sweep-diag keeps its own
# 5000 trials, at which ``workloads`` states the false-failure rates of its
# checks (each below 1e-5 per run); the sweep-super-both means keep their 6-SE
# bands at 2000 trials. fd-budget's accuracy floor is 0.5: over seeds 1-8 a
# budget of 1024 gave no server accuracy below 0.84, while at 256 the S = 16
# calls (U = 16) read 0.50 at the lowest and 0.57 on average.
TINY = {
    "sweep-diag": {"trials": 5000},
    "sweep-super-both": {"trials": 2000},
    "fd-budget": {"unlabeled_budget": 1024},
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_units_pass_their_checks(tmp_path, name):
    w = workloads.WORKLOADS[name](tmp_path, 1, TINY[name])
    unit, rerun = w.run_unit(0, "run"), w.run_unit(0, "rerun")
    assert w.check(unit, rerun) == {}
    if name == "sweep-diag":  # each diagonal point records its bound margin
        assert len(w.margins) == len(w.points)

"""Smoke tests of the experiment script and the ``python -m scene_sim`` entry
point, each run in a subprocess: the script at a tiny size exits 0 and writes a
CSV headed like the library's own export. A subprocess runs with Python's
default warning filters, not with the suite's RuntimeWarnings-as-errors."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scene_sim import FdProtocolConfig, RoundConfig, run_fd
from scene_sim.fd import FD_CSV_HEADER, fd_csv_row

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def run_script(name, out, *args):
    proc = run_python(ROOT / "scripts" / name, "--out", out, *args)
    assert proc.returncode == 0, proc.stderr
    return out.read_text().splitlines()


def run_cli(*args):
    return run_python("-m", "scene_sim", *args)


def load_module(path):
    """Import a file outside the package, under a name of its own (a module
    that defines dataclasses must be in ``sys.modules``)."""
    name = f"{path.parent.name}_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fd_budget_config(tmp_path, **fields):
    """The shipped study config with ``fields`` replaced in its fd section."""
    section = json.loads((ROOT / "configs" / "fd_budget.json").read_text())["fd"]
    path = tmp_path / "fd_budget.json"
    path.write_text(json.dumps({"fd": {**section, **fields}}))
    return path


# B = 16 at 2 clients: a study small enough for a smoke test
SMALL = dict(unlabeled_budget=16, clients=2)
DELETED_FLAGS = ["--budget", "--snr-db", "--clients", "--batch-size", "--learning-rate"]


@pytest.mark.parametrize(
    "name, fields, args, header",
    [("fd_budget.py", SMALL, ["--reps", 1, 4, "--seeds", 1], FD_CSV_HEADER)],
    ids=["fd_budget"],
)
def test_script_runs_and_writes_library_header(tmp_path, name, fields, args, header):
    cfg = fd_budget_config(tmp_path, **fields)
    lines = run_script(name, tmp_path / "out.csv", "--config", cfg, *args)
    assert lines[0] == header
    assert len(lines) > 1


def test_fd_budget_reruns_byte_identical(tmp_path):
    args = ["--config", fd_budget_config(tmp_path, **SMALL), "--reps", 2, "--seeds", 2]
    first = run_script("fd_budget.py", tmp_path / "a.csv", *args)
    assert first == run_script("fd_budget.py", tmp_path / "b.csv", *args)
    assert len(first) == 3  # header + one row per (S, seed)


@pytest.mark.parametrize("seeds", [1, 2])
def test_fd_budget_rows_equal_run_fd(tmp_path, seeds):
    # the config is one point of the study, B = unlabeled_budget * round.reps
    # = 16; the script pretrains once per seed for every S, and its rows stay
    # those of one run_fd call per (S, seed), in the order S outer, seed inner
    reps = (2, 4)
    cfg = fd_budget_config(tmp_path, clients=2, unlabeled_budget=8,
                           round={"num_classes": 10, "reps": 2, "antennas": 1})
    proc = run_python(ROOT / "scripts" / "fd_budget.py", "--out", tmp_path / "out.csv",
                      "--config", cfg, "--reps", *reps, "--seeds", seeds)
    assert proc.returncode == 0, proc.stderr
    expected = [FD_CSV_HEADER]
    for s in reps:
        cfg = FdProtocolConfig(
            clients=2, unlabeled_budget=16 // s, batch_size=4, learning_rate=1.0,
            round=RoundConfig(num_classes=10, reps=s, antennas=1), snr_db=5.0,
        )
        expected += [fd_csv_row(run_fd(cfg, seed), seed) for seed in range(seeds)]
    assert (tmp_path / "out.csv").read_text().splitlines() == expected
    # one seed has no standard error: no "+-" term and no RuntimeWarning
    acc_lines = [line for line in proc.stdout.splitlines() if "server acc" in line]
    assert len(acc_lines) == len(reps)
    assert all(("+-" in line) == (seeds > 1) for line in acc_lines)
    assert proc.stdout.startswith("budget B = 16 at 5.0 dB")
    assert proc.stderr == ""


def test_fd_budget_runs_noise_free(tmp_path):
    # a null snr_db is noise-free: the banner says so and every snr_db cell is empty
    cfg = fd_budget_config(tmp_path, snr_db=None, **SMALL)
    proc = run_python(ROOT / "scripts" / "fd_budget.py", "--out", tmp_path / "out.csv",
                      "--config", cfg, "--reps", 1, 4, "--seeds", 1)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("budget B = 16 at no noise, 1 seeds")
    rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
    assert [row.split(",")[4] for row in rows] == ["", ""]


@pytest.mark.parametrize(
    "fields, args, message",
    [
        ({}, ["--seeds", 0], "--seeds"),  # used to write nan rows
        ({}, ["--reps", 2, 0], "--reps"),  # used to raise ZeroDivisionError
        ({}, ["--reps", 1, -4], "--reps"),
        ({"unlabeled_budget": 8}, ["--reps", 4, 16], "budget"),  # used to end in a traceback
        ({"clients": 0}, [], "client"),
        ({"budget": 8}, [], "unknown config key 'fd.budget'"),
        # B = 2048 * 4 leaves U = 8192 at S = 1, past the 4000-sample open pool
        ({"round": {"num_classes": 10, "reps": 4, "antennas": 1}}, ["--reps", 1, 4],
         "open pool"),
        # each fd field is spelled once, in the config's fd section
        *(({}, [flag, 3], "unrecognized arguments") for flag in DELETED_FLAGS),
    ],
    ids=["seeds", "zero-rep", "negative-rep", "budget-below-rep", "config", "unknown-key",
         "derived-config", *DELETED_FLAGS],
)
def test_fd_budget_bad_arguments_are_usage_errors(tmp_path, fields, args, message):
    cfg = fd_budget_config(tmp_path, **fields)
    proc = run_python(ROOT / "scripts" / "fd_budget.py", "--out", tmp_path / "out.csv",
                      "--config", cfg, *args)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out.csv").exists()


def test_fd_budget_study_is_the_benchmarked_one():
    # the fd-budget benchmark workload runs its own copy of the study; both
    # must stay the shipped one
    shipped, bench = (json.loads(p.read_text())["fd"] for p in (
        ROOT / "configs" / "fd_budget.json", ROOT / "perfbench" / "configs" / "fd_budget.json"))
    assert shipped == bench
    script = load_module(ROOT / "scripts" / "fd_budget.py")
    assert script.DEFAULT_CONFIG == ROOT / "configs" / "fd_budget.json"
    assert script.DEFAULT_REPS == load_module(ROOT / "perfbench" / "workloads.py").FD_REPS


@pytest.mark.parametrize(
    "command, config",
    [("round", "round"), ("crossover", "crossover"), ("crossover", "crossover_map")],
    ids=["round", "crossover", "crossover_map"],
)
def test_cli_runs_shipped_config(tmp_path, command, config):
    proc = run_cli(command, "--config", f"configs/{config}.json", "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "config_resolved.json").exists()
    if config == "crossover_map":  # its null c_nc is the exact one in every row
        exact = proc.stdout.split("using exact c_nc = ")[1].split()[0]
        assert exact == "0.003867278"
        rows = (tmp_path / "crossover.csv").read_text().splitlines()[1:]
        assert rows and all(f"{float(row.split(',')[3]):.7g}" == exact for row in rows)


def test_cli_deleted_flag_is_usage_error(tmp_path):
    proc = run_cli("round", "--s", 2, "--out", tmp_path / "out")
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_fd_overflow_fails(tmp_path):
    # at -3085 dB calibrate_noise still gives a finite noise power (5e307
    # here), but the superposition energies pass the float64 range; with
    # default warning filters such an overflow used to exit 0 with agg_l2_err
    # taken against all-uniform targets
    cfg = tmp_path / "fd.json"
    cfg.write_text(json.dumps({"fd": {
        "clients": 2, "private_size": 100, "open_size": 100, "unlabeled_budget": 8,
        "pretrain_epochs": 1, "distill_epochs": 1, "snr_db": -3085.0, "data": {"size": 300},
    }}))
    proc = run_cli("fd", "--config", cfg, "--out", tmp_path / "out")
    assert proc.returncode == 1
    assert "SNR is too low" in proc.stderr
    assert not (tmp_path / "out" / "fd_metrics.csv").exists()


# Peak resident set of the child's own address space (VmHWM). Its ru_maxrss
# would not do: Linux carries the peak of the address space that exec
# replaced, here the forking test process, into it.
_PEAK_RSS = """
import re, sys
from pathlib import Path
from scene_sim import cli
code = cli.main(sys.argv[1:])
status = Path("/proc/self/status").read_text()
print(int(re.search(r"VmHWM:\\s*(\\d+) kB", status).group(1)) // 1024)
sys.exit(code)
"""


def test_superposition_sweep_memory_is_bounded(tmp_path):
    # two workers at S*M = 16 and N = 10, K = 10 with both estimators: chunks
    # of 8 M complex samples per worker peaked at 340-373 MB; cache-sized
    # chunks keep the whole process near 55 MB (peak RSS, in MB)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"sweep": {
        "population": {"n_devices": 10, "weight_rule": "random"},
        "labels": {"kind": "dirichlet", "num_classes": 10, "alpha": 0.3},
        "sm_pairs": [[4, 4]], "snr_db_values": [5.0], "channel_model": "superposition",
        "estimator": "both", "trials": 40000,
    }}))
    proc = run_python("-c", _PEAK_RSS, "sweep", "--config", cfg, "--threads", 2,
                      "--out", tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.splitlines()[-1]) < 150


def test_diagonal_sweep_memory_is_bounded(tmp_path):
    # two workers at N = 40, K = 10, S*M = 16: a worker used to hold a chunk
    # of up to 8 M Gamma draws at once (peak near 160 MB); chunks of at most
    # channel._WORK_ELEMS draws keep the process near 45 MB (peak RSS, in MB)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"sweep": {
        "population": {"n_devices": 40, "weight_rule": "random"},
        "labels": {"kind": "dirichlet", "num_classes": 10, "alpha": 0.3},
        "sm_pairs": [[4, 4]], "snr_db_values": [5.0], "channel_model": "diagonal",
        "trials": 40000,
    }}))
    proc = run_python("-c", _PEAK_RSS, "sweep", "--config", cfg, "--threads", 2,
                      "--out", tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.splitlines()[-1]) < 100


@pytest.mark.parametrize("n_devices, model", [(10, "superposition"), (1, "diagonal")],
                         ids=["superposition", "diagonal"])
def test_wide_sweep_memory_is_bounded(tmp_path, n_devices, model):
    # two workers at K = 100 with both estimators: a worker used to hold its
    # 20 000-trial job's energies and estimates at once, (20 000, K) float64
    # arrays (peak 115-160 MB), and a diagonal one at N = 1 its whole job as
    # one chunk of Gamma draws (peak near 160 MB); blocks of about 2^16
    # estimates and work-block-sized diagonal chunks keep the whole process
    # near 45-55 MB (peak RSS, in MB)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"sweep": {
        "population": {"n_devices": n_devices, "weight_rule": "random"},
        "labels": {"kind": "dirichlet", "num_classes": 100, "alpha": 0.3},
        "sm_pairs": [[4, 4]], "snr_db_values": [5.0], "channel_model": model,
        "estimator": "both", "trials": 40000,
    }}))
    proc = run_python("-c", _PEAK_RSS, "sweep", "--config", cfg, "--threads", 2,
                      "--out", tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.splitlines()[-1]) < 100

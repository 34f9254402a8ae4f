"""The benchmark's layer tracer patches the functions named in
``perfbench/tracing.py`` ``TARGETS``; a simplification that deletes or
renames one of them breaks the traced benchmark runs. Check that every
target still resolves, and that tiny runs under the tracer record work in
every metered layer."""

import importlib
import json
import sys
from pathlib import Path

import pytest

import scene_sim.fd
from scene_sim import RoundConfig, cli
from scene_sim.fd import DatasetSpec, FdProtocolConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402


@pytest.mark.parametrize("target", tracing.TARGETS, ids=[t[0] for t in tracing.TARGETS])
def test_trace_target_resolves(target):
    _, module_name, path, _ = target
    owner = importlib.import_module(module_name)
    if "." in path:  # a class member, patched in the class namespace
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, path))


def test_traced_runs_record_every_layer(tmp_path, capsys):
    # A sweep running both estimators on two threads, one FD run and one
    # round: the meters bind the arguments of the calls they wrap, so a
    # changed signature fails here rather than only in a traced benchmark run.
    sweep = {
        "population": {"n_devices": 3},
        "labels": {"kind": "dirichlet", "num_classes": 3},
        "sm_pairs": [[2, 1]],
        "estimator": "both",
        "trials": 20_001,  # two trial jobs, so they go through the pool
    }
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"sweep": sweep}))
    fd_cfg = FdProtocolConfig(
        clients=2, private_size=200, open_size=200, unlabeled_budget=32,
        pretrain_epochs=1, distill_epochs=1, batch_size=8,
        round=RoundConfig(num_classes=3, reps=2),
        data=DatasetSpec(num_classes=3, dim=4, size=500),
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sweep_argv = ["sweep", "--config", str(config), "--threads", "2"]
        assert cli.main(sweep_argv + ["--out", str(tmp_path / "sweep")]) == 0
        scene_sim.fd.run_fd(fd_cfg, 0)
        assert cli.main(["round", "--out", str(tmp_path / "round")]) == 0
    finally:
        restored = tracer.uninstall()
    assert restored
    ix = tracing.SpanIndex(tracer.spans)
    assert ix.calls(tracing.JOB) == 2
    for name in ("channel.simulate_rounds", "fd.aggregate_targets", "fd.sgd", "cli.write_rows_csv"):
        assert ix.work(name) > 0, name
    # the FD setup layers too: a call moved out of the patched name would
    # leave its benchmark layer empty
    for name in ("channel.simulate_round", "estimators.scene_estimate",
                 "fd.SyntheticDataset.generate", "fd.pretrain_clients"):
        assert ix.calls(name) > 0, name

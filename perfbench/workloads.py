"""The benchmark's workloads and the checks on their outputs.

Each workload is a closed loop with one client: the next unit of work starts
when the last one returns. A unit is one ``scene-sim sweep`` call through
``scene_sim.cli.main`` (five sweep points) or one pass of the FD budget study
over S in ``FD_REPS`` (five ``scene_sim.run_fd`` calls). An operation, the
thing that fails or passes its checks, is one sweep point or one ``run_fd``
call. Unit ``i`` of a run with benchmark seed ``n`` uses program seed
``1000 * n + i``; the program gets only that seed and the config file.

False-failure probability of each check, per run:

* Sweep, ``scene`` row within ``Z_SE`` standard errors of q_bar: the mean of
  5000 or more trials is close to normal, so a row fails falsely with
  probability 2 * Phi(-6) = 2e-9. A 30 s run checks fewer than 1000 rows: < 1e-5.
* Sweep, ``scene`` class means sum to 1 within ``SUM_TOL``: an identity of
  the estimator up to rounding, never fails falsely.
* ``sweep-diag``, ``var <= var_bound``: ``variance_bound`` exceeds the exact
  diagonal-model variance by a factor of at least 1.21 on every seed from 0
  to 2999. The trial energies are sums of independent exponentials, so the
  excess kurtosis of an estimate is at most 6 and the sample variance of n
  trials has relative SD at most sqrt(8 / n) = 0.04 at n = 5000. A false
  failure needs a 5 SD excursion: < 3e-7 per row under a normal
  approximation. The smallest margin of each run, in those SDs, is written to
  the run record as ``var_bound_margin_sd``.
* Rerun byte identity (sweep CSV rows, ``fd_metrics`` rows): deterministic.
* ``run_fd`` finite metrics: deterministic for a healthy program.
* ``server_acc >= ACC_FLOOR``: 60 calls of this study (seeds 0-11) gave
  accuracies 0.87-0.94 with SD 0.015; the floor is more than 25 SD below, so
  a false failure is < 1e-100 per call under a normal approximation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import scene_sim
from scene_sim import ChannelModel, RandomSource, RoundConfig, analysis, cli
from scene_sim.fd import fd_csv_row

CONFIGS = Path(__file__).resolve().parent / "configs"

Z_SE = 6.0
SUM_TOL = 1e-9
ACC_FLOOR = 0.5
FD_REPS = (1, 2, 4, 8, 16)
# Bound on (excess kurtosis + 2) of a diagonal-model estimate, see above.
VAR_REL_SD_FACTOR = 8.0


@dataclass
class Unit:
    """One unit of work: its wall time and the output of each operation."""

    index: int
    seed: int
    wall: float
    ops: int
    trials: int
    outputs: dict = field(default_factory=dict)  # operation -> output text
    errors: dict = field(default_factory=dict)  # operation -> error message
    details: dict = field(default_factory=dict)  # operation -> parsed result


class Workload:
    """Shared set-up: the config is written to the run directory, so the
    program reads only the generated inputs."""

    section: str
    template: str
    threads = 1

    def __init__(self, out: Path, seed: int, overrides: dict | None = None):
        raw = json.loads((CONFIGS / self.template).read_text())
        raw[self.section].update(overrides or {})
        out.mkdir(parents=True, exist_ok=True)
        self.out = out
        self.config = out / "config.json"
        self.config.write_text(json.dumps(raw, indent=2) + "\n")
        self.spec = cli.load_config(str(self.config), self.section)
        self.base_seed = 1000 * seed

    def run_unit(self, index: int, tag: str) -> Unit:
        raise NotImplementedError

    def check(self, unit: Unit, rerun: Unit) -> dict[str, str]:
        """Failed operations of ``unit`` -> reason; ``rerun`` repeats it."""
        raise NotImplementedError

    def expected_counts(self, unit: Unit) -> dict[str, int]:
        """Per-layer counts that follow from the inputs alone."""
        raise NotImplementedError


class Sweep(Workload):
    section = "sweep"

    def __init__(self, out, seed, overrides=None):
        super().__init__(out, seed, overrides)
        self.points = [(s, m, float(snr)) for (s, m) in self.spec.sm_pairs
                       for snr in self.spec.snr_db_values]
        self.margins: list[float] = []

    def run_unit(self, index, tag):
        seed = self.base_seed + index
        out = self.out / tag / f"sweep-{index}"
        argv = ["sweep", "--config", str(self.config), "--seed", str(seed),
                "--threads", str(self.threads), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
        unit = Unit(index, seed, wall, len(self.points), len(self.points) * self.spec.trials)
        if code != 0:
            unit.errors = {p: f"cli exit code {code}" for p in self.points}
            return unit
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            key = (int(row["S"]), int(row["M"]), float(row["snr_db"]))
            unit.outputs[key] = unit.outputs.get(key, "") + line + "\n"
            unit.details.setdefault(key, []).append(row)
        return unit

    def _draws(self, seed):
        """Population and labels of the sweep at ``seed``, drawn in the order
        ``run_experiment`` draws them."""
        pop_rng, label_rng, _ = RandomSource(seed).split(3)
        pop = self.spec.population.draw(pop_rng)
        labels = self.spec.labels.draw(pop.num_devices, label_rng)
        return pop, labels

    def check(self, unit, rerun):
        failed = {}
        pop, labels = self._draws(unit.seed)
        qbar = pop.omegas @ np.stack([q.probs for q in labels])
        for key in self.points:
            if key in unit.errors or key not in unit.outputs:
                reason = unit.errors.get(key, "missing from sweep.csv")
            else:
                reason = self._check_point(key, unit.details[key], qbar, pop, labels)
            if reason is None and rerun.outputs.get(key) != unit.outputs[key]:
                reason = "rows differ on a rerun at the same seed"
            if reason is not None:
                failed[key] = f"seed {unit.seed} point S,M,snr={key}: {reason}"
        return failed

    def _check_point(self, key, rows, qbar, pop, labels):
        scene = sorted((r for r in rows if r["estimator"] == "scene"), key=lambda r: int(r["class"]))
        if [int(r["class"]) for r in scene] != list(range(qbar.size)):
            return f"scene rows for classes {[r['class'] for r in scene]}, expected 0..{qbar.size - 1}"
        means = np.array([float(r["mean"]) for r in scene])
        ses = np.array([float(r["se"]) for r in scene])
        if not np.all(np.abs(means - qbar) <= Z_SE * ses):
            worst = int(np.argmax(np.abs(means - qbar) / ses))
            return f"class {worst} mean {means[worst]!r} is not within {Z_SE} SE of {qbar[worst]!r}"
        if abs(means.sum() - 1.0) > SUM_TOL:
            return f"scene means sum to {means.sum()!r}"
        if self.spec.channel_model is ChannelModel.DIAGONAL:
            var = np.array([float(r["var"]) for r in scene])
            bound = np.array([float(r["var_bound"]) for r in scene])
            if not np.all(var <= bound):
                return "a var exceeds var_bound"
            self.margins.append(self._bound_margin(key, float(scene[0]["rho"]), pop, labels))
        return None

    def _bound_margin(self, key, rho, pop, labels) -> float:
        """Smallest distance of var_bound above the exact variance, in SDs of
        the sample variance."""
        s, m, snr = key
        k = self.spec.labels.num_classes
        cfg = RoundConfig(num_classes=k, reps=s, antennas=m, rho=rho,
                          noise_var=analysis.calibrate_noise(rho, k, snr),
                          channel_model=ChannelModel.DIAGONAL)
        ratio = analysis.variance_bound(pop, labels, cfg) / analysis.scene_variance_diagonal(pop, labels, cfg)
        return float((ratio.min() - 1.0) / math.sqrt(VAR_REL_SD_FACTOR / self.spec.trials))

    def expected_counts(self, unit):
        return {"power.map_energies.calls": len(self.points)}


class SweepDiag(Sweep):
    template = "sweep_diag.json"


class SweepSuperBoth(Sweep):
    template = "sweep_super_both.json"
    threads = 2


class FdBudget(Workload):
    """The loop of scripts/fd_budget.py: a fixed airtime budget B = U * S,
    with B the config's ``unlabeled_budget``, split over S in ``FD_REPS``."""

    section = "fd"
    template = "fd_budget.json"

    def run_unit(self, index, tag):
        seed = self.base_seed + index
        start = time.perf_counter()
        spec = cli.load_config(str(self.config), self.section)
        wall = time.perf_counter() - start
        configs = {s: replace(spec, unlabeled_budget=spec.unlabeled_budget // s,
                              round=replace(spec.round, reps=s)) for s in FD_REPS}
        unit = Unit(index, seed, 0.0, len(configs), sum(c.unlabeled_budget for c in configs.values()))
        for s, cfg in configs.items():
            start = time.perf_counter()
            try:
                metrics = scene_sim.run_fd(cfg, seed)
            except Exception as exc:  # a raising call is a failed operation
                unit.errors[s] = f"raised {type(exc).__name__}: {exc}"
                continue
            finally:
                wall += time.perf_counter() - start
            unit.outputs[s] = fd_csv_row(metrics, seed)
            unit.details[s] = metrics
        unit.wall = wall
        return unit

    def check(self, unit, rerun):
        failed = {}
        for s in FD_REPS:
            if s in unit.errors:
                failed[s] = f"seed {unit.seed} S={s}: {unit.errors[s]}"
                continue
            m = unit.details[s]
            values = (m.server_accuracy, m.agg_l2_error, *m.kl_per_epoch)
            reason = None
            if not all(math.isfinite(v) for v in values):
                reason = "non-finite metric"
            elif m.server_accuracy < ACC_FLOOR:
                reason = f"server_acc {m.server_accuracy!r} below {ACC_FLOOR}"
            elif rerun.outputs.get(s) != unit.outputs[s]:
                reason = "fd_metrics row differs on a rerun at the same seed"
            if reason is not None:
                failed[s] = f"seed {unit.seed} S={s}: {reason}"
        return failed

    def expected_counts(self, unit):
        cfg = self.spec
        shard = cfg.private_size // cfg.clients
        steps = cfg.pretrain_epochs * math.ceil(shard / cfg.batch_size) * cfg.clients
        return {
            "channel.simulate_round.calls": unit.trials,
            "fd.run_fd.calls": len(FD_REPS),
            "fd.pretrain.sgd_steps": steps * len(FD_REPS),
        }


WORKLOADS = {
    "sweep-diag": SweepDiag,
    "sweep-super-both": SweepSuperBoth,
    "fd-budget": FdBudget,
}

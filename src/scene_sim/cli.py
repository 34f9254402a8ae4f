"""Command-line front end: config ingestion, subcommand dispatch, CSV output.

Config files are JSON with one section per subcommand; unknown keys anywhere
are fatal so typos cannot silently fall back to defaults. The fully resolved
configuration of every successful run is echoed into the output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import os
import sys
import types
import typing
from dataclasses import dataclass, replace
from pathlib import Path

from . import analysis
from .analysis import CROSSOVER_CSV_HEADER, CrossoverModel
from .channel import simulate_round
from .core import Estimator, check_count, weighted_average
from .estimators import ratio_estimate, scene_estimate
from .fd import FD_CSV_HEADER, FdProtocolConfig, fd_csv_row, run_fd
from .montecarlo import ExperimentSpec, SetupSpec, mse_constant, run_experiment, write_rows_csv
from .power import check_noise


# Default --threads: one worker per usable core, at most this many. A run has one
# pool, which runs every job of every sweep point, --threads at a time. A worker
# streams its job in blocks of whole channel chunks, about 2^16 estimates each, and
# the channel's work blocks keep each chunk flat in N and S*M: a superposition job
# with both estimators peaks near 4.3 MB at K = 10 and K = 100 (tracemalloc, N = 10,
# S*M = 16). A diagonal chunk is one work block of Gamma draws: 3.2 MB at N = 10,
# K = 10 or 100, 8.4 MB at N = 1, K = 100. The pool adds about 50 MB on any host.
_DEFAULT_MAX_THREADS = 8


class ConfigError(ValueError):
    """Malformed or unknown configuration content."""


@dataclass(frozen=True)
class RoundSpec(SetupSpec):
    """Single-round demo parameters; one round runs one estimator."""

    s: int = 4
    m: int = 4
    snr_db: float = 5.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.estimator is Estimator.BOTH:
            raise ValueError("a round runs one estimator: 'scene' or 'ratio', not 'both'")
        check_count(1, s=self.s, m=self.m)
        check_noise(self.rho_rule, self.rho_value, self.labels.num_classes, snr_db=self.snr_db)


@dataclass(frozen=True)
class CrossoverSpec:
    """Grid evaluation of the pilot-cost crossover model. Each pair is
    (c_coh, c_nc); with a ``sweep`` section every c_nc is null, and the exact
    c_nc of that sweep's points (:func:`montecarlo.mse_constant`) fills it."""

    budgets: tuple[int, ...] = (100,)
    pilot_costs: tuple[int, ...] = tuple(range(0, 100, 2))
    constant_pairs: tuple[tuple[float, float | None], ...] = ((1.0, 2.0),)
    num_classes: int = 10
    sweep: ExperimentSpec | None = None

    def __post_init__(self) -> None:
        if not (self.budgets and self.pilot_costs and self.constant_pairs):
            raise ValueError("crossover lists must be nonempty")
        check_count(1, **{f"budgets[{i}]": b for i, b in enumerate(self.budgets)})
        check_count(0, **{f"pilot_costs[{i}]": p for i, p in enumerate(self.pilot_costs)})
        if not min(self.pilot_costs) < min(self.budgets):
            raise ValueError(f"every budget needs a row: need 0 <= min(pilot_costs) < "
                             f"min(budgets), got {self.pilot_costs} and {self.budgets}")
        for i, (c_coh, c_nc) in enumerate(self.constant_pairs):
            if self.sweep is not None and c_nc is not None:
                raise ValueError(f"constant_pairs[{i}] = [{c_coh}, {c_nc}]: the sweep gives "
                                 "c_nc, so write the pair as [c_coh, null]")
            if self.sweep is None and c_nc is None:
                raise ValueError(f"constant_pairs[{i}]: a null c_nc needs a sweep to give it")
        # each model checks its budget, constants and K; the sweep's c_nc is not
        # known yet, and 1.0 is valid at every budget, so only each c_coh is checked
        self.models(None if self.sweep is None else 1.0)
        if self.sweep is None:
            return
        snrs = sorted(set(self.sweep.snr_db_values))
        if len(snrs) > 1:
            raise ValueError(f"c_nc depends on the SNR; give one, got snr_db {snrs}")
        if self.sweep.labels.num_classes != self.num_classes:
            raise ValueError(f"the sweep has K = {self.sweep.labels.num_classes} "
                             f"classes, the crossover num_classes = {self.num_classes}")
        for key in ("trials", "estimator"):  # c_nc is exact, and of the scene estimator
            value = getattr(self.sweep, key)
            if value != getattr(ExperimentSpec, key):
                raise ValueError(f"sweep.{key} {getattr(value, 'value', value)!r} is read only "
                                 "under the sweep command; crossover computes c_nc exactly")

    def models(self, sweep_c_nc: float | None) -> list[CrossoverModel]:
        """One model per (constant pair, budget) in CSV order; ``sweep_c_nc``
        fills each null c_nc."""
        return [CrossoverModel(b, c_coh, sweep_c_nc if c_nc is None else c_nc,
                               self.num_classes)
                for c_coh, c_nc in self.constant_pairs for b in self.budgets]


_SECTION_TYPES = {
    "round": RoundSpec,
    "sweep": ExperimentSpec,
    "crossover": CrossoverSpec,
    "fd": FdProtocolConfig,
}


def _strip_optional(tp):
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(tp) if a is not type(None)]
        if len(args) == 1:
            return args[0], True
    return tp, False


def _convert(tp, value, path: str):
    """Coerce a JSON value to the shape of the annotated field type: objects,
    arrays, nulls, numbers and booleans. Counts and settings pass through as
    they are, and every value is checked by the class that holds it."""
    tp, optional = _strip_optional(tp)
    if value is None:
        if optional:
            return None
        raise ConfigError(f"{path}: null not allowed")
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object")
        return _from_dict(tp, value, path)
    if tp is int or (isinstance(tp, type) and issubclass(tp, enum.Enum)):
        return value  # a count or a setting: the class that holds it checks it
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected an array")
        args = typing.get_args(tp)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_convert(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
        if len(args) != len(value):
            raise ConfigError(f"{path}: expected {len(args)} entries, got {len(value)}")
        return tuple(_convert(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    if tp is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{path}: expected a number")
        try:
            return float(value)
        except OverflowError:  # an integer literal past the float range
            raise ConfigError(f"{path}: expected a finite number, got an integer "
                              "past the float range") from None
    if tp is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean")
        return value
    raise ConfigError(f"{path}: unsupported config field type {tp!r}")


def _from_dict(cls, data: dict, path: str):
    hints = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in names:
            raise ConfigError(f"unknown config key '{path}.{key}'")
        kwargs[key] = _convert(hints[key], value, f"{path}.{key}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(path: str | None, command: str):
    """Load the section for ``command`` from a JSON config file (defaults when
    absent). Unknown sections or keys are fatal."""
    if path is None:
        return _SECTION_TYPES[command]()
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as exc:  # not JSON, or an integer past Python's digit limit
        raise ConfigError(f"{command}: cannot parse {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be an object")
    for key in raw:
        if key not in _SECTION_TYPES:
            raise ConfigError(f"unknown config key '{key}'")
    return _convert(_SECTION_TYPES[command], raw.get(command, {}), command)


def _echo_config(spec, command: str, seed: int, out_dir: Path) -> None:
    payload = {"command": command, "seed": seed, command: dataclasses.asdict(spec)}
    (out_dir / "config_resolved.json").write_text(  # settings are Enums: echo their values
        json.dumps(payload, indent=2, sort_keys=True, default=lambda e: e.value) + "\n"
    )


def cmd_round(spec: RoundSpec) -> None:
    """Run one aggregation round end to end and print the per-class table."""
    pop, labels, chan_rng = spec.draw()
    qbar = weighted_average(labels, pop).probs
    cfg, frame, bound = spec.point(pop, labels, spec.s, spec.m, spec.snr_db)
    y, y_ref = simulate_round(frame, pop, cfg, chan_rng)
    if spec.estimator is Estimator.RATIO:  # bias and var_bound are closed forms of scene
        raw, projected = ratio_estimate(y, y_ref)
        scene_columns = ()
    else:
        raw, projected = scene_estimate(y, cfg)
        scene_columns = (analysis.mismatch_bias(pop, labels),)
        if bound is not None:  # var_bound holds only under the diagonal model
            scene_columns += (bound,)

    print(f"# S={spec.s} M={spec.m} snr_db={spec.snr_db} rho={cfg.rho:.6g} "
          f"model={spec.channel_model.value} estimator={spec.estimator.value}")
    print(f"{'class':>5} {'q_bar':>12} {'raw':>12} {'projected':>12} "
          f"{'bias':>12} {'var_bound':>12}")
    for c in range(cfg.num_classes):
        cells = [_cell(col[c]) for col in (qbar, raw, projected, *scene_columns)]
        print(f"{c:>5} " + " ".join(cells + [" " * 12] * (2 - len(scene_columns))))


def _cell(x: float) -> str:
    """A 12-character table cell: six decimals when they fit, else six
    significant digits."""
    fixed = f"{x:>12.6f}"
    return fixed if len(fixed) <= 12 else f"{x:>12.6g}"


def cmd_sweep(spec: ExperimentSpec, out_dir: Path, threads: int) -> None:
    """Run the Monte Carlo sweep and write sweep.csv."""
    rows = run_experiment(spec, threads=threads)
    with open(out_dir / "sweep.csv", "w", newline="") as fp:
        write_rows_csv(rows, fp)
    print(f"wrote {len(rows)} rows to {out_dir / 'sweep.csv'}")


def cmd_crossover(spec: CrossoverSpec, out_dir: Path) -> None:
    """Evaluate the crossover model over the (B, P) grid, with each null c_nc
    the exact one of the ``sweep`` section."""
    c_nc = None
    if spec.sweep is not None:
        c_nc = mse_constant(spec.sweep)
        print(f"using exact c_nc = {c_nc:.7g}")
    lines = [CROSSOVER_CSV_HEADER]
    for model in spec.models(c_nc):
        lines += [model.csv_row(p) for p in spec.pilot_costs if p < model.budget]
    (out_dir / "crossover.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} rows to {out_dir / 'crossover.csv'}")


def cmd_fd(spec: FdProtocolConfig, seed: int, out_dir: Path) -> None:
    """Run the distillation pipeline and write fd_metrics.csv."""
    metrics = run_fd(spec, seed)
    content = FD_CSV_HEADER + "\n" + fd_csv_row(metrics, seed) + "\n"
    (out_dir / "fd_metrics.csv").write_text(content)
    print(
        f"aggregation={spec.aggregation.value} U={spec.unlabeled_budget} "
        f"server_acc={metrics.server_accuracy:.4f} agg_l2_err={metrics.agg_l2_error:.4f}"
    )


def _seeded(spec, flag: int | None):
    """The section with its run seed resolved, and that seed: ``--seed``, else
    the section's own seed (the sweep's for crossover), else 0. The seed is
    written into the section, so the echoed config shows the one that ran."""
    inner = spec.sweep if isinstance(spec, CrossoverSpec) else spec
    if not hasattr(inner, "seed"):
        return spec, 0 if flag is None else flag
    inner = replace(inner, seed=inner.seed if flag is None else flag)
    if isinstance(spec, CrossoverSpec):
        return replace(spec, sweep=inner), inner.seed
    return inner, inner.seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scene-sim",
        description="Noncoherent over-the-air soft-label aggregation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("round", "run one aggregation round and print the estimate table"),
        ("sweep", "Monte Carlo sweep over (S, M) and SNR; writes sweep.csv"),
        ("crossover", "evaluate the pilot-cost crossover grid; writes crossover.csv"),
        ("fd", "one-shot federated distillation run; writes fd_metrics.csv"),
    ):
        p = sub.add_parser(name, help=helptext, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="root random seed")
        if name == "sweep":
            p.add_argument("--threads", type=int, default=None,
                           help="worker threads for trial parallelism "
                                f"(default: one per usable core, at most {_DEFAULT_MAX_THREADS})")
        p.add_argument("--out", default="out", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    threads = getattr(args, "threads", None)  # a flag of sweep only
    try:
        if threads is not None and threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {threads}")
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        spec, seed = _seeded(load_config(args.config, command), args.seed)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if command == "round":
            cmd_round(spec)
        elif command == "fd":
            cmd_fd(spec, seed, out_dir)
        elif command == "crossover":
            cmd_crossover(spec, out_dir)
        else:
            if threads is None:  # the CPUs this process may run on, where the OS tells
                usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                          else os.cpu_count() or 1)
                threads = min(usable, _DEFAULT_MAX_THREADS)
            cmd_sweep(spec, out_dir, threads)
        _echo_config(spec, command, seed, out_dir)  # only a run that succeeded is echoed
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - stage-labelled diagnostics
        print(f"error in '{command}': {exc}", file=sys.stderr)
        return 1

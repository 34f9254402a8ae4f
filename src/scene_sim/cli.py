"""Command-line front end: config ingestion, subcommand dispatch, CSV output.

Config files are JSON with one section per subcommand; unknown keys anywhere
are fatal so typos cannot silently fall back to defaults. The fully resolved
configuration of every run is echoed into the output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import math
import os
import sys
import types
import typing
from dataclasses import dataclass, replace
from pathlib import Path

from . import analysis
from .analysis import (
    CROSSOVER_CSV_HEADER,
    CrossoverModel,
    crossover_csv_row,
    crossover_threshold,
)
from .channel import simulate_round
from .core import ChannelModel, Estimator, RhoRule, weighted_average
from .estimators import ratio_estimate, scene_estimate
from .fd import FD_CSV_HEADER, FdProtocolConfig, fd_csv_row, run_fd
from .montecarlo import (
    ExperimentSpec,
    SetupSpec,
    check_mse_fit,
    estimate_mse_constants,
    run_experiment,
    write_rows_csv,
)
from .power import map_energies


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
        if self.s < 1 or self.m < 1:
            raise ValueError(f"need s, m >= 1, got s={self.s}, m={self.m}")


@dataclass(frozen=True)
class CrossoverSpec:
    """Grid evaluation of the pilot-cost crossover model. With
    ``estimate_c_nc`` the c_nc of every pair is fitted from ``sweep``."""

    budgets: tuple[int, ...] = (100,)
    pilot_costs: tuple[int, ...] = tuple(range(0, 100, 2))
    constant_pairs: tuple[tuple[float, float], ...] = ((1.0, 2.0),)
    num_classes: int = 10
    estimate_c_nc: bool = False
    sweep: ExperimentSpec | None = None

    def __post_init__(self) -> None:
        if self.estimate_c_nc:
            if self.sweep is None:
                raise ConfigError("estimate_c_nc requires a sweep section")
            check_mse_fit(self.sweep)
        if self.num_classes < 2:
            raise ValueError(f"need num_classes >= 2, got {self.num_classes}")
        if not (self.budgets and self.pilot_costs and self.constant_pairs):
            raise ValueError("crossover lists must be nonempty")
        if min(self.budgets) < 1 or min(self.pilot_costs) < 0:
            raise ValueError("need budgets >= 1 and pilot_costs >= 0")
        if any(c <= 0 for pair in self.constant_pairs for c in pair):
            raise ValueError(f"MSE constants must be positive, got {self.constant_pairs}")


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
    """Coerce a JSON value to the annotated field type, strictly."""
    tp, optional = _strip_optional(tp)
    if value is None:
        if optional:
            return None
        raise ConfigError(f"{path}: null not allowed")
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object")
        return _from_dict(tp, value, path)
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        try:
            return tp(value)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    origin = typing.get_origin(tp)
    if origin in (tuple, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected an array")
        args = typing.get_args(tp)
        if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
            return tuple(_convert(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
        if origin is tuple and len(args) == len(value):
            return tuple(
                _convert(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, value))
            )
        if origin is tuple:
            raise ConfigError(f"{path}: expected {len(args)} entries, got {len(value)}")
        return [_convert(args[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
    if tp is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{path}: expected a number")
        if not math.isfinite(value):
            raise ConfigError(f"{path}: expected a finite number, got {value}")
        return float(value)
    if tp is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{path}: expected an integer")
        return value
    if tp is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean")
        return value
    if tp is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string")
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
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be an object")
    for key in raw:
        if key not in _SECTION_TYPES:
            raise ConfigError(f"unknown config key '{key}'")
    section = raw.get(command, {})
    return _from_dict(_SECTION_TYPES[command], section, command)


def _to_jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    return obj


def _echo_config(spec, command: str, seed: int, out_dir: Path) -> None:
    payload = {"command": command, "seed": seed, command: _to_jsonable(spec)}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config_resolved.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def cmd_round(spec: RoundSpec, seed: int, out_dir: Path) -> int:
    """Run one aggregation round end to end and print the per-class table."""
    pop, labels, chan_rng = spec.draw(seed)
    qbar = weighted_average(labels, pop).probs
    k = labels[0].num_classes
    cfg = spec.round_config(pop, k, spec.s, spec.m, spec.snr_db)
    frame = map_energies(labels, pop, cfg.rho)
    y, y_ref = simulate_round(frame, pop, cfg, chan_rng)
    if spec.estimator is Estimator.RATIO:
        raw, projected = ratio_estimate(y, y_ref)
    else:
        raw, projected = scene_estimate(y, cfg)
    bias = analysis.mismatch_bias(pop, labels)
    bound = analysis.variance_bound(pop, labels, cfg)

    print(f"# S={spec.s} M={spec.m} snr_db={spec.snr_db} rho={cfg.rho:.6g} "
          f"model={spec.channel_model.value} estimator={spec.estimator.value}")
    print(f"{'class':>5} {'q_bar':>12} {'raw':>12} {'projected':>12} "
          f"{'bias':>12} {'var_bound':>12}")
    for c in range(k):
        print(
            f"{c:>5} {qbar[c]:>12.6f} {raw[c]:>12.6f} "
            f"{projected[c]:>12.6f} {bias[c]:>12.6f} {bound[c]:>12.6f}"
        )
    return 0


def cmd_sweep(spec: ExperimentSpec, seed: int, out_dir: Path, threads: int | None) -> int:
    """Run the Monte Carlo sweep and write sweep.csv."""
    rows = run_experiment(replace(spec, seed=seed), threads=threads)
    with open(out_dir / "sweep.csv", "w", newline="") as fp:
        write_rows_csv(rows, fp)
    print(f"wrote {len(rows)} rows to {out_dir / 'sweep.csv'}")
    return 0


def cmd_crossover(spec: CrossoverSpec, seed: int, out_dir: Path, threads: int | None) -> int:
    """Evaluate the crossover threshold over the (B, P) grid."""
    pairs = list(spec.constant_pairs)
    if spec.estimate_c_nc:
        fit = estimate_mse_constants(replace(spec.sweep, seed=seed), threads=threads)
        pairs = [(c_coh, fit.c_nc) for (c_coh, _) in pairs]
        print(f"using fitted c_nc = {fit.c_nc:.6g} (se {fit.se:.2g})")
    lines = [CROSSOVER_CSV_HEADER]
    for c_coh, c_nc in pairs:
        for b in spec.budgets:
            model = CrossoverModel(
                budget=b, pilot_cost=0, c_coh=c_coh, c_nc=c_nc,
                num_classes=spec.num_classes,
            )
            for p in spec.pilot_costs:
                if not 0 <= p < b:
                    continue
                res = crossover_threshold(replace(model, pilot_cost=p))
                lines.append(crossover_csv_row(res, p))
    (out_dir / "crossover.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} rows to {out_dir / 'crossover.csv'}")
    return 0


def cmd_fd(spec: FdProtocolConfig, seed: int, out_dir: Path) -> int:
    """Run the distillation pipeline and write fd_metrics.csv."""
    metrics = run_fd(spec, seed)
    content = FD_CSV_HEADER + "\n" + fd_csv_row(metrics, seed) + "\n"
    (out_dir / "fd_metrics.csv").write_text(content)
    print(
        f"aggregation={metrics.aggregation.value} U={metrics.unlabeled_budget} "
        f"server_acc={metrics.server_accuracy:.4f} agg_l2_err={metrics.agg_l2_error:.4f}"
    )
    return 0


# Per-field flags; ``crossover`` takes none of them.
_FIELD_FLAGS = ("s", "m", "snr_db", "rho", "model", "estimator")


def _apply_overrides(spec, args):
    """Fold the per-field flags into the loaded section. A flag the command
    cannot honour is a config error, never silently dropped."""
    given = {f: getattr(args, f) for f in _FIELD_FLAGS if getattr(args, f) is not None}
    if not given:
        return spec
    if isinstance(spec, CrossoverSpec):
        names = ", ".join("--" + f.replace("_", "-") for f in given)
        raise ConfigError(f"crossover takes no per-field flags, got {names}")
    fixed_rho = {"rho_rule": RhoRule.FIXED} if "rho" in given else {}
    try:
        if isinstance(spec, FdProtocolConfig):
            round_cfg = replace(
                spec.round,
                reps=given.get("s", spec.round.reps),
                antennas=given.get("m", spec.round.antennas),
                rho=given.get("rho", spec.round.rho),
                channel_model=given.get("model", spec.round.channel_model),
            )
            return replace(
                spec,
                round=round_cfg,
                snr_db=given.get("snr_db", spec.snr_db),
                aggregation=given.get("estimator", spec.aggregation),
                **fixed_rho,
            )
        updates = dict(
            rho_value=given.get("rho", spec.rho_value),
            channel_model=given.get("model", spec.channel_model),
            estimator=given.get("estimator", spec.estimator),
            **fixed_rho,
        )
        if isinstance(spec, RoundSpec):
            updates.update({f: given[f] for f in ("s", "m", "snr_db") if f in given})
        else:
            if "s" in given or "m" in given:
                s0, m0 = spec.sm_pairs[0]
                updates["sm_pairs"] = ((given.get("s", s0), given.get("m", m0)),)
            if "snr_db" in given:
                updates["snr_db_values"] = (given["snr_db"],)
        return replace(spec, **updates)
    except ValueError as exc:
        raise ConfigError(f"command-line flags: {exc}") from exc


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
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="root random seed")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads for trial parallelism")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--s", type=int, default=None, help="repetitions override")
        p.add_argument("--m", type=int, default=None, help="antennas override")
        p.add_argument("--snr-db", type=float, default=None, dest="snr_db")
        p.add_argument("--rho", type=float, default=None,
                       help="fixed energy scale (disables the min-rho rule)")
        p.add_argument("--model", choices=[m.value for m in ChannelModel], default=None)
        p.add_argument("--estimator", choices=[e.value for e in Estimator], default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    try:
        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        for flag in ("snr_db", "rho"):
            value = getattr(args, flag)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"--{flag.replace('_', '-')} must be finite, got {value}")
        spec = load_config(args.config, command)
        spec = _apply_overrides(spec, args)
        if args.seed is not None:
            seed = args.seed
        elif hasattr(spec, "seed"):
            seed = spec.seed
        else:
            seed = 0
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _echo_config(spec, command, seed, out_dir)
        threads = args.threads if args.threads is not None else os.cpu_count()
        if command == "round":
            return cmd_round(spec, seed, out_dir)
        if command == "sweep":
            return cmd_sweep(spec, seed, out_dir, threads)
        if command == "crossover":
            return cmd_crossover(spec, seed, out_dir, threads)
        return cmd_fd(spec, seed, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - stage-labelled diagnostics
        print(f"error in '{command}': {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Budget-allocation experiment: split a fixed airtime budget B = U * S
between unlabeled samples (U) and repetitions (S) and compare server accuracy.

The ``fd`` section of ``--config`` is one point of the study: its airtime
B = unlabeled_budget * round.reps stays fixed, and each S in ``--reps`` runs
that config with U = B // S and round.reps = S.

The aggressive distillation step (small batches, constant learning rate)
makes the final model sensitive to target noise, which is what creates the
interior optimum; with calm steps the linear student simply averages the
noise away and sending everything once wins.
"""

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from scene_sim import FdSetup
from scene_sim.cli import load_config
from scene_sim.fd import FD_CSV_HEADER, fd_csv_row

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "fd_budget.json"
DEFAULT_REPS = (1, 2, 4, 8, 16)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(DEFAULT_CONFIG),
                    help="JSON config with an fd section (default: configs/fd_budget.json)")
    ap.add_argument("--reps", type=int, nargs="+", default=list(DEFAULT_REPS))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", default="out/fd_budget.csv")
    args = ap.parse_args()
    if args.seeds < 1:
        ap.error(f"--seeds must be at least 1, got {args.seeds}")
    if min(args.reps) < 1:
        ap.error(f"every --reps entry must be at least 1, got {min(args.reps)}")
    # a ConfigError is a ValueError; so is a derived config the fd checks
    # reject, such as a U = B // S past the open pool
    try:
        base = load_config(args.config, "fd")
        budget = base.unlabeled_budget * base.round.reps
        if budget < max(args.reps):
            ap.error(f"budget B = {budget} leaves no sample at S = {max(args.reps)}")
        configs = [replace(base, unlabeled_budget=budget // s, round=replace(base.round, reps=s))
                   for s in args.reps]
    except (OSError, ValueError) as exc:
        ap.error(f"{args.config}: {exc}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = [FD_CSV_HEADER]
    level = "no noise" if base.snr_db is None else f"{base.snr_db} dB"
    print(f"budget B = {budget} at {level}, {args.seeds} seeds")
    # S changes only distillation, so each seed pretrains once for every S
    per_seed = []
    for seed in range(args.seeds):
        setup = FdSetup.build(configs[0], seed)
        per_seed.append([setup.distill(cfg) for cfg in configs])
    for cfg, runs in zip(configs, zip(*per_seed)):
        accs = [m.server_accuracy for m in runs]
        lines += [fd_csv_row(m, seed) for seed, m in enumerate(runs)]
        spread = ""
        if len(accs) > 1:
            spread = f" (+- {np.std(accs, ddof=1) / np.sqrt(len(accs)):.4f})"
        print(
            f"  S={cfg.round.reps:>2} U={cfg.unlabeled_budget:>5}: "
            f"server acc {np.mean(accs):.4f}{spread}"
        )
    out.write_text("\n".join(lines) + "\n")
    print(f"rows written to {out}")


if __name__ == "__main__":
    main()

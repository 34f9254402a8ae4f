#!/usr/bin/env python3
"""Budget-allocation experiment: split a fixed airtime budget B = U * S
between unlabeled samples (U) and repetitions (S) and compare server accuracy.

The aggressive distillation step (small batches, constant learning rate)
makes the final model sensitive to target noise, which is what creates the
interior optimum; with calm steps the linear student simply averages the
noise away and sending everything once wins.
"""

import argparse
from pathlib import Path

import numpy as np

from scene_sim import FdProtocolConfig, FdSetup, RoundConfig
from scene_sim.fd import FD_CSV_HEADER, fd_csv_row


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budget", type=int, default=2048)
    ap.add_argument("--reps", type=int, nargs="+", default=[1, 2, 4, 8, 16])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--snr-db", type=float, default=5.0)
    ap.add_argument("--clients", type=int, default=3)
    ap.add_argument("--batch-size", type=int, default=4)
    ap.add_argument("--learning-rate", type=float, default=1.0)
    ap.add_argument("--out", default="out/fd_budget.csv")
    args = ap.parse_args()
    if args.seeds < 1:
        ap.error(f"--seeds must be at least 1, got {args.seeds}")
    if min(args.reps) < 1:
        ap.error(f"every --reps entry must be at least 1, got {min(args.reps)}")
    if args.budget < max(args.reps):
        ap.error(f"--budget {args.budget} leaves no sample at S = {max(args.reps)}")
    try:
        configs = [
            FdProtocolConfig(
                clients=args.clients,
                unlabeled_budget=args.budget // s,
                batch_size=args.batch_size,
                learning_rate=args.learning_rate,
                round=RoundConfig(num_classes=10, reps=s, antennas=1),
                snr_db=args.snr_db,
            )
            for s in args.reps
        ]
    except ValueError as exc:
        ap.error(str(exc))

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = [FD_CSV_HEADER]
    print(f"budget B = {args.budget} at {args.snr_db} dB, {args.seeds} seeds")
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

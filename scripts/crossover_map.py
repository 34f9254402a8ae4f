#!/usr/bin/env python3
"""Map the pilot-cost region where the pilot-free scheme has lower round MSE
than a coherent design, optionally fitting the noncoherent constant from a
Monte Carlo sweep instead of assuming it."""

import argparse
from pathlib import Path

from scene_sim import (
    ChannelModel,
    CrossoverModel,
    ExperimentSpec,
    LabelSpec,
    PopulationSpec,
    estimate_mse_constants,
)
from scene_sim.analysis import CROSSOVER_CSV_HEADER


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budgets", type=int, nargs="+", default=[50, 100, 200, 400])
    ap.add_argument("--c-coh", type=float, default=1.0)
    ap.add_argument("--c-nc", type=float, default=2.0)
    ap.add_argument("--fit-c-nc", action="store_true",
                    help="estimate c_nc from a Monte Carlo sweep")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="out/crossover_map.csv")
    args = ap.parse_args()

    c_nc = args.c_nc
    if args.fit_c_nc:
        spec = ExperimentSpec(
            population=PopulationSpec(n_devices=10),
            labels=LabelSpec(kind="dirichlet", num_classes=10, alpha=0.3),
            sm_pairs=((1, 1), (2, 2), (4, 4), (8, 8)),
            snr_db_values=(5.0,),
            channel_model=ChannelModel.DIAGONAL,
            trials=50_000,
            seed=args.seed,
        )
        fit = estimate_mse_constants(spec)
        c_nc = fit.c_nc
        print(f"fitted c_nc = {c_nc:.6g} (se {fit.se:.2g})")

    lines = [CROSSOVER_CSV_HEADER]
    for b in args.budgets:
        model = CrossoverModel(budget=b, c_coh=args.c_coh, c_nc=c_nc, num_classes=10)
        print(f"B={b:>4}: threshold P >= {model.p_threshold:.1f} "
              f"({model.p_threshold / b:.0%} of the budget)")
        lines += [model.csv_row(p) for p in range(b)]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"rows written to {out}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark; it is not part of the tier-1 suite.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at a tiny size, untraced and traced,
and checks that each run reports exactly the metrics BENCHMARK.json lists,
with their units, that no operation fails (so ``error_rate`` is 0) and that
the trace self-checks pass. A traced run also compares the output bytes of
its untraced and traced units, so a passing traced run shows they match.
"""

from __future__ import annotations

import json
import sys

import run

TINY = {
    "sweep-diag": {"trials": 200},
    "sweep-super-both": {"trials": 400},
    "fd-budget": {
        "unlabeled_budget": 512, "private_size": 300, "open_size": 800, "pretrain_epochs": 2,
        "data": {"num_classes": 10, "dim": 16, "size": 1500, "noise_std": 0.3},
    },
}


def main() -> int:
    if not run.prepare_process():
        print("smoke: no scene_sim sources", file=sys.stderr)
        return 2
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []
    for workload in bench["workloads"]:
        name = workload["name"]
        for trace in (False, True):
            report = run.run(name, seed=1, seconds=0.1, trace=trace, overrides=TINY[name])
            result = report["result"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            where = f"{name} trace={int(trace)}"
            if got != wanted[trace]:
                errors.append(f"{where}: metrics {sorted(got.items())} != {sorted(wanted[trace].items())}")
            if result["failed"] or not result["correct"] or report["record"]["error_rate"] != 0:
                errors.append(f"{where}: failed operations {report['failures']}")
            errors += [f"{where}: {p}" for p in report["problems"]]
            print(f"smoke: {where} attempted={result['attempted']} failed={result['failed']}")
    for e in errors:
        print(f"smoke: FAIL {e}", file=sys.stderr)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

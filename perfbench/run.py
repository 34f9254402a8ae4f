#!/usr/bin/env python3
"""Benchmark of the scene-sim simulator; README.md defines its workloads
and metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One invocation runs one workload in this fresh
process.

``--trace 0`` runs each unit of work twice in a row at the same seed, with
set-up probes after each pair, until ``--seconds`` are used up. It times both
runs, checks the outputs of the first against the workload's checks and
against the second, and reports the end-to-end metrics.

``--trace 1`` runs one unit traced, untraced and traced again and reports the
per-layer metrics. The three runs must give the same outputs and the two
traced runs the same counts, and the counts must match those that follow from
the inputs; ``trace.self_check_failures`` counts mismatches.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep-diag", "sweep-super-both", "fd-budget")
# Set-up samples after each pair of units, so they spread over the run.
PROBES_PER_PAIR = 3
PROBE_TIMEOUT_S = 60
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

_PROBE = """
import sys, time
start = time.perf_counter()
from scene_sim import cli
cli.load_config(sys.argv[1], sys.argv[2])
print(time.perf_counter() - start)
"""


def setup_probe(w) -> float:
    """Time to import scene_sim and load the workload's config, measured in a
    fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(w.config), w.section],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV),
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    """Commit of the checkout, read from its own .git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(name: str, seed: int, threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": name,
        "seed": seed,
        "threads": threads,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "scene_sim").glob("*.py"))),
    }


def timed_run(w, seconds: float) -> tuple[dict, int, int, list[str]]:
    pairs, setup = [], []
    start = time.perf_counter()
    elapsed = 0.0
    # Stop before a pair that would likely end past the deadline.
    while not pairs or elapsed * (len(pairs) + 1) / len(pairs) <= seconds:
        index = len(pairs)
        pairs.append((w.run_unit(index, "run"), w.run_unit(index, "rerun")))
        setup += [setup_probe(w) for _ in range(PROBES_PER_PAIR)]
        elapsed = time.perf_counter() - start
    failures = []
    for unit, rerun in pairs:
        failures += w.check(unit, rerun).values()
    timed = [u for pair in pairs for u in pair]
    metrics = {
        "trials_per_s": (statistics.median(u.trials / u.wall for u in timed), "1/s"),
        "ops_per_s": (statistics.median(u.ops / u.wall for u in timed), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return metrics, sum(unit.ops for unit, _ in pairs), len(timed), failures


def traced_run(w, out: Path) -> tuple[dict, int, list[str], list[str]]:
    """The first traced unit warms up; the untraced unit and the second traced
    one then run warm, so their difference is the trace overhead."""
    from tracing import SpanIndex, Tracer, layer_metrics

    problems = []

    def traced_unit(tag):
        tracer = Tracer()
        try:
            tracer.install()
            unit = w.run_unit(0, tag)
        finally:
            if not tracer.uninstall():
                problems.append(f"{tag}: a wrapper was not restored")
        return unit, tracer

    first, first_tracer = traced_unit("traced-1")
    plain = w.run_unit(0, "untraced")
    second, tracer = traced_unit("traced-2")
    tracer.write(out / "spans.jsonl")
    failed = {**w.check(plain, first), **w.check(plain, second)}

    index = SpanIndex(tracer.spans)
    metrics = layer_metrics(index, w.threads)
    if index.counts() != SpanIndex(first_tracer.spans).counts():
        problems.append("the two traced runs gave different counts")
    for name, expected in w.expected_counts(plain).items():
        if metrics[name][0] != expected:
            problems.append(f"{name} = {metrics[name][0]}, expected {expected}")
    metrics["trace.overhead_s"] = (second.wall - plain.wall, "s")
    metrics["trace.self_check_failures"] = (len(problems), "count")
    return metrics, plain.ops, list(failed.values()), problems


def run(name: str, seed: int, seconds: float, trace: bool, overrides: dict | None = None) -> dict:
    """Run one workload and return the result line as a dict, with the run
    record and any failure messages beside it."""
    from workloads import WORKLOADS

    out = ROOT / ".bench_out" / name / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    w = WORKLOADS[name](out, seed, overrides)
    record = run_record(name, seed, w.threads)
    problems = []
    if trace:
        metrics, attempted, failures, problems = traced_run(w, out)
    else:
        metrics, attempted, units, failures = timed_run(w, seconds)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        record["timed_units"] = units
    if getattr(w, "margins", None):
        record["var_bound_margin_sd"] = min(w.margins)
    record["error_rate"] = len(failures) / attempted
    (out / "run.json").write_text(json.dumps(record, indent=2) + "\n")
    return {
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "record": record,
        "failures": failures,
        "problems": problems,
    }


def prepare_process() -> bool:
    """Pin BLAS to one thread before numpy is first imported and make
    scene_sim and the benchmark modules importable; False without sources."""
    if not (SRC / "scene_sim" / "__init__.py").is_file():
        return False
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="scene-sim benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not prepare_process():
        print(f"perfbench: no scene_sim package under {SRC}", file=sys.stderr)
        return 2

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for message in report["failures"] + report["problems"]:
        print(f"perfbench: {message}", file=sys.stderr)
    result = report["result"]
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']:.6g} {entry['unit']}")
    print(f"error_rate {report['record']['error_rate']:.6g} ratio")
    print("run_record " + json.dumps(report["record"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

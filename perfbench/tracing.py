"""Timing spans around the calls into each layer of ``scene_sim``.

The tracer replaces a function at every place it is looked up: every
``scene_sim`` module attribute bound to it (``montecarlo.simulate_rounds``,
``fd.simulate_round``, ``cli.run_experiment``, the package namespace, and the
defining module itself), or the class attribute for methods. Spans are kept in
memory with name, start, end, parent and thread id and written out once at the
end. ``uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "work")

    def __init__(self, span_id, name, parent, thread):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.work = 0


# Work meters: called with the bound arguments before the call, they return a
# function that gives the work of the call once it has returned.
def _device_slot_samples(a):
    cfg = a["cfg"]
    slots = cfg.num_classes + int(cfg.use_reference_re)
    work = a["trials"] * a["energies"].num_devices * slots * cfg.reps * cfg.antennas
    return lambda: work


def _unlabeled_samples(a):
    work = a["client_probs"].shape[1]
    return lambda: work


def _sgd_steps(a):
    work = a["epochs"] * math.ceil(a["x"].shape[0] / a["batch_size"])
    return lambda: work


def _bytes_written(a):
    fp = a["fp"]
    start = fp.tell()
    return lambda: fp.tell() - start


# (span name, defining module, attribute path, work meter)
TARGETS = (
    ("channel.simulate_rounds", "scene_sim.channel", "simulate_rounds", _device_slot_samples),
    ("channel.simulate_round", "scene_sim.channel", "simulate_round", None),
    ("power.map_energies", "scene_sim.power", "map_energies", None),
    ("estimators.scene_raw", "scene_sim.estimators", "scene_raw", None),
    ("estimators.scene_estimate", "scene_sim.estimators", "scene_estimate", None),
    ("montecarlo.run_experiment", "scene_sim.montecarlo", "run_experiment", None),
    ("montecarlo.point", "scene_sim.montecarlo", "_point_stats", None),
    ("montecarlo.TrialStats.from_samples", "scene_sim.montecarlo", "TrialStats.from_samples", None),
    ("montecarlo.TrialStats.merge", "scene_sim.montecarlo", "TrialStats.merge", None),
    ("core.RandomSource.split", "scene_sim.core", "RandomSource.split", None),
    ("core.SoftLabel", "scene_sim.core", "SoftLabel.__init__", None),
    ("analysis.variance_bound", "scene_sim.analysis", "variance_bound", None),
    ("fd.run_fd", "scene_sim.fd", "run_fd", None),
    ("fd.SyntheticDataset.generate", "scene_sim.fd", "SyntheticDataset.generate", None),
    ("fd.pretrain_clients", "scene_sim.fd", "pretrain_clients", None),
    ("fd.one_shot_distill", "scene_sim.fd", "one_shot_distill", None),
    ("fd.aggregate_targets", "scene_sim.fd", "aggregate_targets", _unlabeled_samples),
    ("fd.sgd", "scene_sim.fd", "SoftmaxClassifier.train_soft", _sgd_steps),
    ("cli.load_config", "scene_sim.cli", "load_config", None),
    ("cli.write_rows_csv", "scene_sim.montecarlo", "write_rows_csv", _bytes_written),
)

# A trial job handed to the montecarlo thread pool.
JOB = "montecarlo.job"
# Structural spans: they give jobs a parent and count as montecarlo's own time.
MONTECARLO_OWN = frozenset({"montecarlo.point", JOB})


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name, fn, meter=None, parent=None):
        """Return ``fn`` timed as span ``name``; ``parent`` overrides the
        caller's open span (used for work handed to another thread)."""
        tracer = self
        signature = inspect.signature(fn) if meter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            up = parent if parent is not None else (stack[-1] if stack else None)
            with tracer._lock:
                span = Span(next(tracer._ids), name, up.id if up else None, threading.get_ident())
            finish = meter(signature.bind(*args, **kwargs).arguments) if meter else None
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if finish is not None:
                    span.work = finish()
                with tracer._lock:
                    tracer.spans.append(span)

        return traced

    def install(self) -> None:
        """Wrap every target where it is looked up."""
        owners = {t[1]: importlib.import_module(t[1]) for t in TARGETS}
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "scene_sim" or k.startswith("scene_sim."))]
        for name, module_name, path, meter in TARGETS:
            owner = owners[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                self._patch_member(getattr(owner, cls_name), attr, name, meter)
                continue
            original = getattr(owner, path)
            traced = self.wrap(name, original, meter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, traced)
        self._set(owners["scene_sim.montecarlo"], "ThreadPoolExecutor", self._pool_class())

    def _patch_member(self, cls, attr, name, meter) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(name, raw.__func__, meter)))
        else:
            self._set(cls, attr, self.wrap(name, raw, meter))

    def _set(self, owner, attr, value) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                job = tracer.wrap(JOB, fn, parent=tracer.current())
                return super().map(job, *iterables, **kwargs)

        return TracedPool

    def uninstall(self) -> bool:
        """Restore every original object; True when all are back in place."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original for owner, attr, original in self._patches)
        self._patches.clear()
        return restored

    def write(self, path: Path) -> None:
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as fp:
            for s in sorted(self.spans, key=lambda s: s.start):
                fp.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent, "thread": s.thread,
                    "start_s": s.start - t0, "end_s": s.end - t0, "work": s.work,
                }) + "\n")


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class SpanIndex:
    """Aggregates over the spans of one traced run."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def calls(self, name) -> int:
        return len(self.named(name))

    def busy(self, name, under=None) -> float:
        return sum(s.end - s.start for s in self.named(name) if under is None or self.has_ancestor(s, under))

    def work(self, name, under=None) -> int:
        return sum(s.work for s in self.named(name) if under is None or self.has_ancestor(s, under))

    def has_ancestor(self, span, name) -> bool:
        while span.parent is not None:
            span = self.by_id[span.parent]
            if span.name == name:
                return True
        return False

    def descendants(self, span):
        out, todo = [], list(self.children.get(span.id, ()))
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(self.children.get(s.id, ()))
        return out

    def self_time(self, name, own=frozenset()) -> float:
        """Span time not covered by descendant spans, except those in ``own``,
        summed over all spans called ``name``."""
        total = 0.0
        for s in self.named(name):
            kids = [(d.start, d.end) for d in self.descendants(s) if d.name not in own]
            total += (s.end - s.start) - _covered(kids, s.start, s.end)
        return total

    def worker_busy(self) -> float:
        """Time spent running trial jobs: the pool's job spans of each sweep
        point, or the point span itself when it ran its jobs inline."""
        total = 0.0
        for point in self.named("montecarlo.point"):
            jobs = [c for c in self.children.get(point.id, ()) if c.name == JOB]
            total += sum(j.end - j.start for j in jobs) if jobs else point.end - point.start
        return total

    def counts(self) -> dict[str, list[int]]:
        """Calls and work per span name: these follow from the inputs alone."""
        out: dict[str, list[int]] = {}
        for s in self.spans:
            entry = out.setdefault(s.name, [0, 0])
            entry[0] += 1
            entry[1] += s.work
        return out


def _per(numerator, denominator, scale=1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(ix: SpanIndex, threads: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced run: name -> (value, unit)."""
    rounds_busy = ix.busy("channel.simulate_rounds")
    round_calls = ix.calls("channel.simulate_round")
    map_calls = ix.calls("power.map_energies")
    est_calls = ix.calls("estimators.scene_estimate")
    sweep_wall = ix.busy("montecarlo.run_experiment")
    worker_busy = ix.worker_busy()
    agg_busy = ix.busy("fd.aggregate_targets")
    sgd_steps = ix.work("fd.sgd")
    return {
        "channel.simulate_rounds.calls": (ix.calls("channel.simulate_rounds"), "count"),
        "channel.simulate_rounds.busy_s": (rounds_busy, "s"),
        "channel.simulate_rounds.dss_per_s": (_per(ix.work("channel.simulate_rounds"), rounds_busy), "1/s"),
        "channel.simulate_round.calls": (round_calls, "count"),
        "channel.simulate_round.us_per_call": (_per(ix.busy("channel.simulate_round"), round_calls, 1e6), "us"),
        "power.map_energies.calls": (map_calls, "count"),
        "power.map_energies.us_per_call": (_per(ix.busy("power.map_energies"), map_calls, 1e6), "us"),
        "estimators.scene_raw.busy_s": (ix.busy("estimators.scene_raw"), "s"),
        "estimators.scene_estimate.calls": (est_calls, "count"),
        "estimators.scene_estimate.us_per_call": (_per(ix.busy("estimators.scene_estimate"), est_calls, 1e6), "us"),
        "montecarlo.TrialStats.from_samples.busy_s": (ix.busy("montecarlo.TrialStats.from_samples"), "s"),
        "montecarlo.TrialStats.merge.calls": (ix.calls("montecarlo.TrialStats.merge"), "count"),
        "montecarlo.TrialStats.merge.busy_s": (ix.busy("montecarlo.TrialStats.merge"), "s"),
        "montecarlo.self_s": (ix.self_time("montecarlo.run_experiment", MONTECARLO_OWN), "s"),
        "montecarlo.worker_busy_s": (worker_busy, "s"),
        "montecarlo.parallel_efficiency": (_per(worker_busy, threads * sweep_wall), "ratio"),
        "core.RandomSource.split.calls": (ix.calls("core.RandomSource.split"), "count"),
        "core.RandomSource.split.busy_s": (ix.busy("core.RandomSource.split"), "s"),
        "core.SoftLabel.count": (ix.calls("core.SoftLabel"), "count"),
        "core.SoftLabel.busy_s": (ix.busy("core.SoftLabel"), "s"),
        "analysis.variance_bound.busy_s": (ix.busy("analysis.variance_bound"), "s"),
        "fd.run_fd.calls": (ix.calls("fd.run_fd"), "count"),
        "fd.SyntheticDataset.generate.busy_s": (ix.busy("fd.SyntheticDataset.generate"), "s"),
        "fd.pretrain_clients.busy_s": (ix.busy("fd.pretrain_clients"), "s"),
        "fd.pretrain.sgd_steps": (ix.work("fd.sgd", under="fd.pretrain_clients"), "count"),
        "fd.aggregate_targets.busy_s": (agg_busy, "s"),
        "fd.aggregate_targets.us_per_sample": (_per(agg_busy, ix.work("fd.aggregate_targets"), 1e6), "us"),
        "fd.aggregate_targets.self_s": (ix.self_time("fd.aggregate_targets"), "s"),
        "fd.distill.busy_s": (ix.busy("fd.sgd", under="fd.one_shot_distill"), "s"),
        "fd.sgd.us_per_step": (_per(ix.busy("fd.sgd"), sgd_steps, 1e6), "us"),
        "cli.load_config.busy_s": (ix.busy("cli.load_config"), "s"),
        "cli.write_rows_csv.busy_s": (ix.busy("cli.write_rows_csv"), "s"),
        "cli.write_rows_csv.bytes": (ix.work("cli.write_rows_csv"), "B"),
    }

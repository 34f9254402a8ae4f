"""Experiment orchestration: repeated-trial simulation over parameter sweeps,
streaming statistics with exact merges, and CSV persistence.

Trials are split into fixed-size jobs with pre-split random streams. A sweep
runs the jobs of all its points on one thread pool per run, and each point
merges its jobs in job order, so results are identical no matter how many
workers run them.
"""

from __future__ import annotations

import threading
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from . import analysis
from .channel import PathlossModel, chunk_trials, sample_pathloss, simulate_rounds
from .core import (
    ChannelModel,
    DevicePopulation,
    Estimator,
    RandomSource,
    RhoRule,
    RoundConfig,
    SoftLabel,
    check_correlation,
    check_count,
    check_range,
    check_scale,
    check_simplex,
    coerce_settings,
    csv_cell,
    weighted_average,
)
from .estimators import clip_renormalize, ratio_raw, scene_raw
from .power import EnergyFrame, check_noise, map_energies, resolve_round

# Trials per scheduling job; fixed so outputs do not depend on worker count.
_JOB_TRIALS = 20_000
# Target estimate elements (trials x K) of one block of a job, rounded up to
# whole channel chunks. A block's energies and estimates are all a worker
# holds at once; more, smaller blocks cost numpy calls.
_BLOCK_ELEMS = 2**16

CSV_HEADER = (
    "S,M,snr_db,rho,model,estimator,class,mean,bias,var,var_bound,se,trials,seed"
)


@dataclass
class TrialStats:
    """Streaming per-class moments (Welford form).

    ``m2`` holds the running sum of squared deviations, so
    variance = m2 / (n - 1). ``merge`` combines disjoint streams exactly:
    merging equals computing the stats of the concatenated samples. Moments
    past the float64 range come out inf or nan unwarned, for the caller to check.
    """

    n: int
    mean: np.ndarray
    m2: np.ndarray

    @classmethod
    def from_samples(cls, x: np.ndarray) -> "TrialStats":
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[0] == 0:
            raise ValueError("x holds no samples: need at least one row")
        with np.errstate(over="ignore", invalid="ignore"):
            mean = x.mean(axis=0)
            sq = x - mean
            sq **= 2
            return cls(x.shape[0], mean, sq.sum(axis=0))

    def merge(self, other: "TrialStats") -> "TrialStats":
        n = self.n + other.n
        with np.errstate(over="ignore", invalid="ignore"):
            delta = other.mean - self.mean
            mean = self.mean + delta * (other.n / n)
            m2 = self.m2 + other.m2 + delta**2 * (self.n * other.n / n)
        return TrialStats(n, mean, m2)

    @property
    def variance(self) -> np.ndarray:
        if self.n < 2:
            return np.full_like(self.mean, np.nan)
        return self.m2 / (self.n - 1)

    @property
    def std_error(self) -> np.ndarray:
        return np.sqrt(self.variance / self.n)


class WeightRule(Enum):
    """How device weights are drawn: equal, or uniform on [0.1, 1] and
    normalized."""

    UNIFORM = "uniform"
    RANDOM = "random"


class LabelKind(Enum):
    """How device soft labels are drawn (see :class:`LabelSpec`)."""

    DIRICHLET = "dirichlet"
    VERTEX = "vertex"
    FIXED = "fixed"


@dataclass(frozen=True)
class PopulationSpec:
    """How to draw a device population for an experiment.

    Large-scale gains come from the pathloss model; power caps are uniform on
    ``power_cap_range``. ``gamma_range`` draws a per-device calibration
    mismatch (None means perfectly calibrated devices).
    """

    n_devices: int = 10
    pathloss: PathlossModel = field(default_factory=PathlossModel)
    power_cap_range: tuple[float, float] = (0.5, 1.5)
    weight_rule: WeightRule = WeightRule.UNIFORM
    gamma_range: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        check_count(1, n_devices=self.n_devices)
        coerce_settings(self, weight_rule=WeightRule)
        check_range(power_cap_range=self.power_cap_range, gamma_range=self.gamma_range)

    def draw(self, rng: RandomSource) -> DevicePopulation:
        gen = rng.generator
        n = self.n_devices
        betas = sample_pathloss(self.pathloss, n, rng)
        caps = gen.uniform(*self.power_cap_range, n)
        if self.weight_rule is WeightRule.UNIFORM:
            omegas = np.full(n, 1.0 / n)
        else:
            omegas = gen.uniform(0.1, 1.0, n)
            omegas /= omegas.sum()
        if self.gamma_range is None:
            assumed = betas
        else:
            gammas = gen.uniform(*self.gamma_range, n)
            assumed = betas / gammas
        return DevicePopulation(omegas, betas, assumed, caps)


@dataclass(frozen=True)
class LabelSpec:
    """How to draw the per-device soft labels.

    "dirichlet" draws peaked labels (small alpha mimics confident model
    outputs), "vertex" puts each device on a random one-hot corner, and
    "fixed" uses the supplied list verbatim.
    """

    kind: LabelKind = LabelKind.DIRICHLET
    num_classes: int = 10
    alpha: float = 0.3
    fixed: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        coerce_settings(self, kind=LabelKind)
        check_count(2, num_classes=self.num_classes)
        if not 0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.kind is not LabelKind.DIRICHLET and self.alpha != LabelSpec.alpha:
            raise ValueError(f"alpha {self.alpha} is read only under kind 'dirichlet', "
                             f"not under '{self.kind.value}'")
        if self.kind is LabelKind.FIXED:
            if not self.fixed:
                raise ValueError("fixed label spec needs labels")
            if any(len(row) != self.num_classes for row in self.fixed):
                raise ValueError(f"every fixed label needs num_classes = {self.num_classes} entries")
            try:
                check_simplex(self.fixed)
            except ValueError as exc:
                raise ValueError(f"fixed labels: {exc}") from None
        elif self.fixed is not None:
            raise ValueError(f"fixed labels need kind 'fixed', got kind '{self.kind.value}'")

    def draw(self, n_devices: int, rng: RandomSource) -> list[SoftLabel]:
        gen = rng.generator
        k = self.num_classes
        if self.kind is LabelKind.FIXED:
            labels = [SoftLabel(np.asarray(row)) for row in self.fixed]
            if len(labels) != n_devices:
                raise ValueError(
                    f"{len(labels)} fixed labels for {n_devices} devices"
                )
            return labels
        if self.kind is LabelKind.VERTEX:
            eye = np.eye(k)
            picks = gen.integers(0, k, n_devices)
            return [SoftLabel(eye[p]) for p in picks]
        draws = gen.dirichlet(np.full(k, self.alpha), size=n_devices)
        return [SoftLabel(row) for row in draws]


@dataclass(frozen=True)
class SetupSpec:
    """What a single round and a sweep share: how the population and labels
    are drawn, and how the energy scale and the receiver of a point are set."""

    population: PopulationSpec = field(default_factory=PopulationSpec)
    labels: LabelSpec = field(default_factory=LabelSpec)
    rho_rule: RhoRule = RhoRule.MIN_RHO
    rho_value: float = 1.0
    channel_model: ChannelModel = ChannelModel.SUPERPOSITION
    estimator: Estimator = Estimator.SCENE
    seed: int = 0

    def __post_init__(self) -> None:
        coerce_settings(
            self, rho_rule=RhoRule, channel_model=ChannelModel, estimator=Estimator
        )
        check_scale(rho_value=self.rho_value)
        if self.rho_rule is RhoRule.MIN_RHO and self.rho_value != SetupSpec.rho_value:
            raise ValueError(f"rho_value {self.rho_value} is read only under rho_rule "
                             "'fixed'; min_rho negotiates rho")
        check_count(0, seed=self.seed)
        n_fixed = len(self.labels.fixed) if self.labels.kind is LabelKind.FIXED else None
        if n_fixed not in (None, self.population.n_devices):
            raise ValueError(f"{n_fixed} fixed labels for {self.population.n_devices} devices")

    def draw(self) -> tuple[DevicePopulation, list[SoftLabel], RandomSource]:
        """Population and labels drawn from ``self.seed``, and the stream left
        for the channel."""
        pop_rng, label_rng, channel_rng = RandomSource(self.seed).split(3)
        pop = self.population.draw(pop_rng)
        labels = self.labels.draw(pop.num_devices, label_rng)
        return pop, labels, channel_rng

    def point(
        self, pop: DevicePopulation, labels: Sequence[SoftLabel], s: int, m: int,
        snr_db: float, **corr: float,
    ) -> tuple[RoundConfig, EnergyFrame, np.ndarray | None]:
        """The (S, M, SNR) point with the AR(1) coefficients ``corr``: its
        parameters resolved by :func:`power.resolve_round`, the labels' energy
        frame, and :func:`analysis.variance_bound`, which checks the noise
        term before any channel call. The bound holds for the diagonal model
        with independent samples only; under any other point it is None."""
        k = labels[0].num_classes
        base = RoundConfig(k, s, m, self.rho_value, channel_model=self.channel_model, **corr)
        reference = self.estimator is not Estimator.SCENE
        cfg = resolve_round(base, self.rho_rule, pop, snr_db, reference)
        bound = analysis.variance_bound(pop, labels, cfg)
        holds = cfg.channel_model is ChannelModel.DIAGONAL and cfg.time_corr == cfg.space_corr == 0
        return cfg, map_energies(labels, pop, cfg.rho), bound if holds else None


@dataclass(frozen=True)
class ExperimentSpec(SetupSpec):
    """A full sweep: population, labels, and the (S, M) x SNR grid."""

    sm_pairs: tuple[tuple[int, int], ...] = ((4, 4),)
    snr_db_values: tuple[float, ...] = (5.0,)
    trials: int = 10_000
    time_corr: float = 0.0
    space_corr: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.sm_pairs or not self.snr_db_values:
            raise ValueError("sweep lists must be nonempty")
        check_count(1, **{f"sm_pairs[{i}][{j}]": n
                          for i, pair in enumerate(self.sm_pairs) for j, n in enumerate(pair)})
        check_count(1, trials=self.trials)
        check_noise(self.rho_rule, self.rho_value, self.labels.num_classes,
                    **{f"snr_db_values[{i}]": v for i, v in enumerate(self.snr_db_values)})
        check_correlation(time_corr=self.time_corr, space_corr=self.space_corr)


@dataclass(frozen=True)
class ResultRow:
    """One (sweep point, estimator, class) row of the result table.

    ``var``/``se`` are None when undefined (single trial); ``var_bound`` is
    only populated for the raw self-centering estimator at a point where the
    bound holds (see :meth:`SetupSpec.point`).
    """

    s: int
    m: int
    snr_db: float
    rho: float
    model: str
    estimator: str
    cls: int
    mean: float
    bias: float
    var: float | None
    var_bound: float | None
    se: float | None
    trials: int
    seed: int


def write_rows_csv(rows: Sequence[ResultRow], fp: IO[str]) -> None:
    """Serialize rows, one cell per :class:`ResultRow` field in declaration
    order, the order ``CSV_HEADER`` names them (newline = LF)."""
    fp.write(CSV_HEADER + "\n")
    for r in rows:
        fp.write(",".join(map(csv_cell, vars(r).values())) + "\n")


def _point_stats(
    spec: ExperimentSpec,
    pop: DevicePopulation,
    frame: EnergyFrame,
    cfg: RoundConfig,
    rng: RandomSource,
    pool: ThreadPoolExecutor,
    failed: threading.Event,
) -> Iterator[dict[str, TrialStats]]:
    """Submit the jobs of one sweep point, sending ``frame``, to ``pool``;
    return their stats in job order, keyed by estimator variant ("scene",
    "scene_proj", "ratio", "ratio_proj"). A failing job sets the run's flag
    ``failed``, and a job that starts after that raises ``CancelledError``.

    Each job streams its trials through the channel and the estimators in
    blocks of whole channel chunks, about ``_BLOCK_ELEMS`` estimates each, so
    it draws what one channel call of the job would draw and holds one
    block's arrays at a time, whatever its trial count. Block stats merge in
    block order; merged in job order, a job of one block gives the bits of one
    call, and more blocks move only the last digits of the moments.
    """
    want_scene = spec.estimator is not Estimator.RATIO
    want_ratio = spec.estimator is not Estimator.SCENE
    chunk = chunk_trials(pop, cfg)
    block = -(-_BLOCK_ELEMS // (cfg.num_classes * chunk)) * chunk

    jobs = [min(_JOB_TRIALS, spec.trials - lo) for lo in range(0, spec.trials, _JOB_TRIALS)]

    def run_block(count: int, stream: RandomSource) -> dict[str, TrialStats]:
        y, y_ref = simulate_rounds(frame, pop, cfg, stream, trials=count)
        out: dict[str, TrialStats] = {}

        def add(name: str, raw: np.ndarray) -> None:
            # one estimate and its projection at a time bound the block's memory
            out[name] = TrialStats.from_samples(raw)
            out[name + "_proj"] = TrialStats.from_samples(clip_renormalize(raw))

        if want_scene:
            add("scene", scene_raw(y, cfg.sample_count, cfg.rho))
        if want_ratio:
            add("ratio", ratio_raw(y, y_ref))
        return out

    def run_job(count: int, stream: RandomSource) -> dict[str, TrialStats]:
        if failed.is_set():
            raise CancelledError
        try:
            return _merged(run_block(min(block, count - lo), stream) for lo in range(0, count, block))
        except Exception:
            failed.set()
            raise

    return pool.map(run_job, jobs, rng.split(len(jobs)))


def _merged(parts: Iterable[dict[str, TrialStats]]) -> dict[str, TrialStats]:
    """Stats of disjoint trial streams merged key by key, in order."""
    merged: dict[str, TrialStats] = {}
    for part in parts:
        for key, stats in part.items():
            merged[key] = merged[key].merge(stats) if key in merged else stats
    return merged


def run_experiment(spec: ExperimentSpec, threads: int | None = None) -> list[ResultRow]:
    """Run the sweep and return the result table.

    The population and labels are drawn once per experiment (large-scale
    gains are quasi-static); fading and noise are redrawn every trial. Every
    point is resolved and checked before any trial runs; then the jobs of
    every point run on one pool of ``threads`` workers (one when None), and
    no job starts after the first failure. A failure in a point's setup or
    jobs, such as moments past the float64 range, raises a ``RuntimeError``
    naming the point. Deterministic given the spec, independent of ``threads``.
    """
    if threads is not None:
        check_count(1, threads=threads)
    pop, labels, trial_rng = spec.draw()
    qbar = weighted_average(labels, pop).probs
    k = labels[0].num_classes

    grid = [(s, m, snr) for (s, m) in spec.sm_pairs for snr in spec.snr_db_values]
    corr = dict(time_corr=spec.time_corr, space_corr=spec.space_corr)
    rows: list[ResultRow] = []
    failed = threading.Event()  # set at the first failure: no job starts after it
    with ThreadPoolExecutor(max_workers=threads or 1) as pool:  # threads start at the first job
        try:
            points = []
            for s, m, snr_db in grid:
                points.append(spec.point(pop, labels, s, m, snr_db, **corr))
            runs = [_point_stats(spec, pop, frame, cfg, stream, pool, failed)
                    for (cfg, frame, _), stream in zip(points, trial_rng.split(len(grid)))]
            for (s, m, snr_db), (cfg, _, bound), jobs in zip(grid, points, runs):
                for name, st in _merged(jobs).items():
                    if not (np.isfinite(st.mean).all() and np.isfinite(st.m2).all()):
                        raise ValueError(f"the moments of estimator '{name}' overflow the float64 "
                                         "range: the SNR is too low or the energies too large")
                    variance, se = st.variance, st.std_error
                    has_var = st.n >= 2
                    for c in range(k):
                        rows.append(
                            ResultRow(
                                s=s,
                                m=m,
                                snr_db=snr_db,
                                rho=cfg.rho,
                                model=spec.channel_model.value,
                                estimator=name,
                                cls=c,
                                mean=float(st.mean[c]),
                                bias=float(st.mean[c] - qbar[c]),
                                var=float(variance[c]) if has_var else None,
                                var_bound=(float(bound[c]) if name == "scene"
                                           and bound is not None else None),
                                se=float(se[c]) if has_var else None,
                                trials=st.n,
                                seed=spec.seed,
                            )
                        )
        except Exception as exc:  # s, m and snr_db are the failing point's
            failed.set()
            raise RuntimeError(f"sweep point S={s}, M={m}, snr_db={snr_db} failed: {exc}") from exc
    return rows


def mse_constant(spec: ExperimentSpec) -> float:
    """Exact noncoherent MSE constant c_nc of the sweep ``spec``: the mean over
    its points of the class-mean :func:`analysis.scene_variance` times S*M,
    for the population and labels :func:`run_experiment` draws. A sweep's
    Monte Carlo ``var`` * S * M estimates the same number."""
    pop, labels, _ = spec.draw()
    corr = dict(time_corr=spec.time_corr, space_corr=spec.space_corr)
    cfgs = [spec.point(pop, labels, s, m, snr_db, **corr)[0]
            for s, m in spec.sm_pairs for snr_db in spec.snr_db_values]
    return float(np.mean([np.mean(analysis.scene_variance(pop, labels, cfg)) * cfg.sample_count
                          for cfg in cfgs]))

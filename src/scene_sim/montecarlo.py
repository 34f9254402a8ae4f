"""Experiment orchestration: repeated-trial simulation over parameter sweeps,
streaming statistics with exact merges, and CSV persistence.

Trials are split into fixed-size jobs with pre-split random streams and merged
in job order, so results are identical no matter how many workers run them.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Sequence

import numpy as np

from . import analysis
from .channel import PathlossModel, sample_pathloss, simulate_rounds
from .core import (
    ChannelModel,
    DevicePopulation,
    Estimator,
    RandomSource,
    RhoRule,
    RoundConfig,
    SoftLabel,
    check_correlation,
    check_range,
    check_simplex,
    coerce_settings,
    weighted_average,
)
from .estimators import ratio_estimate, scene_estimate
from .power import map_energies, resolve_round

# Trials per scheduling job; fixed so outputs do not depend on worker count.
_JOB_TRIALS = 20_000

CSV_HEADER = (
    "S,M,snr_db,rho,model,estimator,class,mean,bias,var,var_bound,se,trials,seed"
)


class InsufficientSweep(ValueError):
    """Constant fitting needs self-centering variances at three or more
    distinct S*M products."""


class MixedSnr(ValueError):
    """Constant fitting needs a single SNR: c_nc depends on it."""


@dataclass
class TrialStats:
    """Streaming per-class moments (Welford form).

    ``m2`` holds the running sum of squared deviations, so
    variance = m2 / (n - 1). ``merge`` combines disjoint streams exactly:
    merging equals computing the stats of the concatenated samples.
    """

    n: int
    mean: np.ndarray
    m2: np.ndarray

    @classmethod
    def from_samples(cls, x: np.ndarray) -> "TrialStats":
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        mean = x.mean(axis=0)
        return cls(x.shape[0], mean, ((x - mean) ** 2).sum(axis=0))

    def merge(self, other: "TrialStats") -> "TrialStats":
        n = self.n + other.n
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
        if self.n_devices < 1:
            raise ValueError("need at least one device")
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
        if self.num_classes < 2:
            raise ValueError("need K >= 2")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.kind is LabelKind.FIXED:
            if not self.fixed:
                raise ValueError("fixed label spec needs labels")
            if any(len(row) != self.num_classes for row in self.fixed):
                raise ValueError(f"every fixed label needs num_classes = {self.num_classes} entries")
            check_simplex(self.fixed)

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
        if not self.rho_value > 0:
            raise ValueError(f"rho_value must be positive, got {self.rho_value}")
        n_fixed = len(self.labels.fixed) if self.labels.kind is LabelKind.FIXED else None
        if n_fixed not in (None, self.population.n_devices):
            raise ValueError(f"{n_fixed} fixed labels for {self.population.n_devices} devices")

    def draw(self, seed: int) -> tuple[DevicePopulation, list[SoftLabel], RandomSource]:
        """Population and labels drawn from ``seed``, and the stream left for
        the channel."""
        pop_rng, label_rng, channel_rng = RandomSource(seed).split(3)
        pop = self.population.draw(pop_rng)
        labels = self.labels.draw(pop.num_devices, label_rng)
        return pop, labels, channel_rng

    def round_config(
        self, pop: DevicePopulation, k: int, s: int, m: int, snr_db: float, **corr: float
    ) -> RoundConfig:
        """Parameters of the (S, M, SNR) point with the AR(1) coefficients
        ``corr``, resolved by :func:`power.resolve_round`."""
        base = RoundConfig(k, s, m, self.rho_value, channel_model=self.channel_model, **corr)
        reference = self.estimator is not Estimator.SCENE
        return resolve_round(base, self.rho_rule, pop, snr_db, reference)


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
        if any(s < 1 or m < 1 for s, m in self.sm_pairs):
            raise ValueError(f"every sm_pairs entry needs S, M >= 1, got {self.sm_pairs}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        check_correlation(time_corr=self.time_corr, space_corr=self.space_corr)


@dataclass(frozen=True)
class ResultRow:
    """One (sweep point, estimator, class) row of the result table.

    ``var``/``se`` are None when undefined (single trial); ``var_bound`` is
    only populated for the raw self-centering estimator. ``wall_time`` is a
    diagnostic shared by all rows of a sweep point and is not serialized.
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
    wall_time: float = 0.0


def _fmt(x: float | int | None) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    if math.isnan(x):
        return ""
    return f"{x:.17g}"


def write_rows_csv(rows: Sequence[ResultRow], fp: IO[str]) -> None:
    """Serialize rows with 17 significant digits (newline = LF)."""
    fp.write(CSV_HEADER + "\n")
    for r in rows:
        fields = [
            str(r.s),
            str(r.m),
            _fmt(r.snr_db),
            _fmt(r.rho),
            r.model,
            r.estimator,
            str(r.cls),
            _fmt(r.mean),
            _fmt(r.bias),
            _fmt(r.var),
            _fmt(r.var_bound),
            _fmt(r.se),
            str(r.trials),
            str(r.seed),
        ]
        fp.write(",".join(fields) + "\n")


def _point_stats(
    spec: ExperimentSpec,
    pop: DevicePopulation,
    labels: list[SoftLabel],
    cfg: RoundConfig,
    rng: RandomSource,
    threads: int | None,
) -> dict[str, TrialStats]:
    """Run all trials of one sweep point, returning stats keyed by estimator
    variant ("scene", "scene_proj", "ratio", "ratio_proj")."""
    frame = map_energies(labels, pop, cfg.rho)
    want_scene = spec.estimator is not Estimator.RATIO
    want_ratio = spec.estimator is not Estimator.SCENE

    jobs = [min(_JOB_TRIALS, spec.trials - lo) for lo in range(0, spec.trials, _JOB_TRIALS)]
    streams = rng.split(len(jobs))

    def run_job(args) -> dict[str, TrialStats]:
        count, stream = args
        y, y_ref = simulate_rounds(frame, pop, cfg, stream, trials=count)
        estimates = {}
        if want_scene:
            estimates["scene"] = scene_estimate(y, cfg)
        if want_ratio:
            estimates["ratio"] = ratio_estimate(y, y_ref)
        out: dict[str, TrialStats] = {}
        for name, (raw, projected) in estimates.items():
            out[name] = TrialStats.from_samples(raw)
            out[name + "_proj"] = TrialStats.from_samples(projected)
        return out

    work = list(zip(jobs, streams))
    if threads is not None and threads > 1 and len(work) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(run_job, work))
    else:
        partials = [run_job(w) for w in work]

    merged: dict[str, TrialStats] = {}
    for part in partials:
        for key, stats in part.items():
            merged[key] = merged[key].merge(stats) if key in merged else stats
    return merged


def run_experiment(spec: ExperimentSpec, threads: int | None = None) -> list[ResultRow]:
    """Run the sweep and return the result table.

    The population and labels are drawn once per experiment (large-scale
    gains are quasi-static); fading and noise are redrawn every trial.
    Deterministic given the spec, independent of ``threads``.
    """
    pop, labels, trial_rng = spec.draw(spec.seed)
    qbar = weighted_average(labels, pop).probs
    k = labels[0].num_classes

    points = [(s, m, snr) for (s, m) in spec.sm_pairs for snr in spec.snr_db_values]
    point_streams = trial_rng.split(len(points))

    rows: list[ResultRow] = []
    for (s, m, snr_db), stream in zip(points, point_streams):
        start = time.perf_counter()
        cfg = spec.round_config(
            pop, k, s, m, snr_db, time_corr=spec.time_corr, space_corr=spec.space_corr
        )
        try:
            stats = _point_stats(spec, pop, labels, cfg, stream, threads)
        except Exception as exc:
            raise RuntimeError(
                f"sweep point S={s}, M={m}, snr_db={snr_db} failed: {exc}"
            ) from exc
        elapsed = time.perf_counter() - start
        bound = analysis.variance_bound(pop, labels, cfg)
        for name, st in stats.items():
            variance = st.variance
            se = st.std_error
            for c in range(k):
                has_var = st.n >= 2
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
                        var_bound=float(bound[c]) if name == "scene" else None,
                        se=float(se[c]) if has_var else None,
                        trials=st.n,
                        seed=spec.seed,
                        wall_time=elapsed,
                    )
                )
    return rows


@dataclass(frozen=True)
class MseConstantEstimate:
    """Fitted noncoherent MSE constant: mean of Var(r_c) * S * M across sweep
    points (classes averaged within each point) and its standard error."""

    c_nc: float
    se: float
    per_point: tuple[float, ...]


def check_mse_fit(spec: ExperimentSpec) -> None:
    """Reject a sweep :func:`estimate_mse_constants` cannot fit.

    The fit needs at least three distinct S*M products, so flatness of the
    fit is informative about the scaling law rather than a single budget; a
    single SNR, since c grows with the sigma_N^4 / rho^2 noise term; and
    self-centering variances, so the scene estimator and two or more trials.
    """
    snrs = sorted(set(spec.snr_db_values))
    if len(snrs) > 1:
        raise MixedSnr(f"c_nc depends on the SNR; fit one at a time, got snr_db {snrs}")
    products = {s * m for (s, m) in spec.sm_pairs}
    if len(products) < 3:
        raise InsufficientSweep(
            f"need >= 3 distinct S*M products, got {sorted(products)}"
        )
    if spec.estimator is Estimator.RATIO:
        raise InsufficientSweep("c_nc is fitted to the scene estimator; the sweep runs only 'ratio'")
    if spec.trials < 2:
        raise InsufficientSweep(f"a variance needs >= 2 trials per point, got {spec.trials}")


def estimate_mse_constants(
    spec: ExperimentSpec, threads: int | None = None
) -> MseConstantEstimate:
    """Estimate the c in Var(r_c) ~ c / (S*M) from a sweep that passes
    :func:`check_mse_fit`."""
    check_mse_fit(spec)
    by_point: dict[tuple[int, int, float], list[float]] = {}
    for r in run_experiment(spec, threads):
        if r.estimator == "scene":
            by_point.setdefault((r.s, r.m, r.snr_db), []).append(r.var * r.s * r.m)
    per_point = tuple(float(np.mean(v)) for v in by_point.values())
    c_hat = float(np.mean(per_point))
    se = float(np.std(per_point, ddof=1) / math.sqrt(len(per_point)))
    return MseConstantEstimate(c_hat, se, per_point)

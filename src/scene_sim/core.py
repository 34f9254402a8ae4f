"""Domain types shared by every module: soft labels, device populations,
round parameters, and the deterministic random-source contract.

All stochastic operations in this package take an explicit :class:`RandomSource`;
there is no global RNG state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

# |sum(q) - 1| allowed after accumulated rounding (safe up to K ~ 1e4).
SIMPLEX_SUM_TOL = 1e-9
# Entries this far below zero are treated as floating-point dust and clipped.
NEGATIVITY_TOL = 1e-12


def check_simplex(v, totals=1.0) -> np.ndarray:
    """Check the rows (trailing axis) of ``v``, vectorized over leading axes:
    K >= 2 entries each, finite and not below -NEGATIVITY_TOL, each row summing
    to its entry of ``totals`` within SIMPLEX_SUM_TOL * max(1, total). Returns
    a float64 copy with the negative dust clipped to exactly zero."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim < 1 or v.shape[-1] < 2:
        raise ValueError(f"rows need K >= 2 entries, got shape {v.shape}")
    totals = np.asarray(totals, dtype=np.float64)
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(totals))):
        raise ValueError("entries and row totals must be finite")
    if np.any(v < -NEGATIVITY_TOL):
        raise ValueError(f"negative probability {float(v.min())!r}")
    sums = v.sum(axis=-1)
    bad = np.abs(sums - totals) > SIMPLEX_SUM_TOL * np.maximum(1.0, totals)
    if np.any(bad):
        expected = float(np.broadcast_to(totals, bad.shape)[bad][0])
        raise ValueError(f"entries sum to {float(sums[bad][0])!r}, expected {expected!r}")
    return np.maximum(v, 0.0)


@dataclass(frozen=True, eq=False)
class SoftLabel:
    """A probability vector on the (K-1)-simplex.

    Invariants (checked on construction by :func:`check_simplex`): every
    entry finite and >= 0, and the entries sum to 1 within
    ``SIMPLEX_SUM_TOL``. Negative dust above ``-NEGATIVITY_TOL`` is clipped to
    exactly zero.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.probs, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError(f"soft label must be a vector, got shape {v.shape}")
        probs = check_simplex(v)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @property
    def num_classes(self) -> int:
        return self.probs.size

    def __len__(self) -> int:
        return self.probs.size

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.probs, dtype=dtype, copy=copy)


@dataclass(frozen=True, eq=False)
class DevicePopulation:
    """N devices as four read-only float64 vectors, one entry per device.

    ``omegas`` are the aggregation weights (>= 0, summing to one).
    ``betas_true`` is the actual large-scale power gain seen by the channel;
    ``betas_assumed`` the device-side estimate used for transmit scaling
    (None: the true gains, i.e. calibrated devices). Their ratio ``gammas`` is
    the calibration mismatch (1 = perfectly known gain). ``power_caps`` are the
    per-repetition energy budgets (None: ones).
    """

    omegas: np.ndarray
    betas_true: np.ndarray
    betas_assumed: np.ndarray | None = None
    power_caps: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.betas_assumed is None:
            object.__setattr__(self, "betas_assumed", self.betas_true)
        if self.power_caps is None:
            object.__setattr__(self, "power_caps", np.ones(np.shape(self.betas_true)))
        vecs = [np.array(getattr(self, f.name), dtype=np.float64) for f in fields(self)]
        if len({v.shape for v in vecs}) != 1 or vecs[0].ndim != 1:
            raise ValueError("per-device arrays must be vectors of equal length")
        for f, v in zip(fields(self), vecs):
            v.flags.writeable = False
            object.__setattr__(self, f.name, v)
        omegas, betas_true, betas_assumed, power_caps = vecs
        if omegas.size < 1:
            raise ValueError("population needs at least one device")
        if not np.isfinite(vecs).all():
            raise ValueError("per-device entries must be finite")
        if np.any(omegas < 0):
            raise ValueError(f"omega must be >= 0, got {float(omegas.min())}")
        if np.any(betas_true <= 0) or np.any(betas_assumed <= 0):
            raise ValueError("large-scale gains must be positive")
        if np.any(power_caps <= 0):
            raise ValueError("power caps must be positive")
        if not np.all(np.isfinite(self.gammas)):
            raise ValueError("gamma = beta_true / beta_assumed must be finite")
        total = float(omegas.sum())
        if abs(total - 1.0) > SIMPLEX_SUM_TOL:
            raise ValueError(f"device weights sum to {total!r}, expected 1")

    @property
    def num_devices(self) -> int:
        return self.omegas.size

    @property
    def gammas(self) -> np.ndarray:
        return self.betas_true / self.betas_assumed

    @property
    def gamma_bar(self) -> float:
        """Weighted mean mismatch, sum_i omega_i * gamma_i."""
        return float(self.omegas @ self.gammas)


class ChannelModel(Enum):
    """Which received-energy model the channel simulator uses.

    SUPERPOSITION: complex baseband superposition of all devices per sample,
    with fading shared across the K class slots of a repetition.
    DIAGONAL: per-device energies add directly with fading drawn independently
    per class slot, the decomposition under which the variance results hold.
    """

    SUPERPOSITION = "superposition"
    DIAGONAL = "diagonal"


class Estimator(Enum):
    """Which receiver estimator a run reports; BOTH runs the two side by side."""

    SCENE = "scene"
    RATIO = "ratio"
    BOTH = "both"


class RhoRule(Enum):
    """How the global energy scale is set: negotiated min-rho, or a fixed value."""

    MIN_RHO = "min_rho"
    FIXED = "fixed"


def coerce_settings(obj, **kinds: type[Enum]) -> None:
    """Store each named field of a frozen dataclass as a member of its
    setting Enum, given the member or its value; anything else is a
    ValueError naming the field and the setting's values."""
    for name, kind in kinds.items():
        value = getattr(obj, name)
        try:
            member = kind(value)
        except (TypeError, ValueError):
            values = ", ".join(repr(m.value) for m in kind)
            raise ValueError(f"{name} must be one of {values}, got {value!r}") from None
        object.__setattr__(obj, name, member)


def check_count(minimum: int, **counts: int) -> None:
    """Reject counts that are a bool, are not an int or numpy integer, or are
    below ``minimum``."""
    for name, n in counts.items():
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < minimum:
            raise ValueError(f"{name} must be an integer >= {minimum}, got {n}")


def check_range(**ranges: tuple[float, float] | None) -> None:
    """Reject intervals unless 0 < lo <= hi < inf; None means no interval."""
    for name, r in ranges.items():
        if r is not None and not 0.0 < r[0] <= r[1] < np.inf:
            raise ValueError(f"{name} needs 0 < lo <= hi, got {tuple(r)}")


def check_scale(**scales: float) -> None:
    """Reject energy scales rho unless rho^2 is a positive, normal, finite
    float64, rho within about [1.5e-154, 1.3e154]: the variance terms divide
    by rho^2."""
    for name, rho in scales.items():
        square = float(rho) * float(rho)  # inf past the range, with no warning
        if not (rho > 0 and np.finfo(np.float64).tiny <= square < np.inf):
            raise ValueError(f"{name} must be positive with a normal, finite square, got {rho}")


def check_snr(**snrs: float) -> None:
    """Reject SNRs in dB that are nan or whose linear factor 10^(snr_db/10)
    is zero or past the float64 range, snr_db about outside [-3230, 3080]: no
    noise power realizes them."""
    for name, snr_db in snrs.items():
        try:
            factor = 10.0 ** (snr_db / 10.0)
        except OverflowError:
            factor = math.inf
        if not 0.0 < factor < math.inf:
            raise ValueError(f"{name} must be finite, with a noise power in the float range, "
                             f"got {snr_db}")


def csv_cell(x: object) -> str:
    """One CSV cell: empty for None, 17 significant digits for a float."""
    if x is None:
        return ""
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def check_correlation(**coeffs: float) -> None:
    """Reject AR(1) correlation coefficients outside [0, 1)."""
    for name, c in coeffs.items():
        if not 0.0 <= c < 1.0:
            raise ValueError(f"{name} must lie in [0, 1), got {c}")


@dataclass(frozen=True)
class RoundConfig:
    """Parameters of one aggregation round.

    ``rho`` is the global energy scale broadcast by the server, ``noise_var``
    the per-resource-element complex noise power. The AR(1) coefficients
    ``time_corr`` and ``space_corr`` are the energy-domain autocorrelation
    across repetitions and antennas; 0 means independent samples.
    """

    num_classes: int
    reps: int = 1
    antennas: int = 1
    rho: float = 1.0
    noise_var: float = 0.0
    channel_model: ChannelModel = ChannelModel.SUPERPOSITION
    time_corr: float = 0.0
    space_corr: float = 0.0
    use_reference_re: bool = False

    def __post_init__(self) -> None:
        check_count(2, num_classes=self.num_classes)
        check_count(1, reps=self.reps, antennas=self.antennas)
        check_scale(rho=self.rho)
        if not 0 <= self.noise_var < np.inf:
            raise ValueError(f"noise_var must be >= 0 and finite, got {self.noise_var}")
        coerce_settings(self, channel_model=ChannelModel)
        check_correlation(time_corr=self.time_corr, space_corr=self.space_corr)

    @property
    def sample_count(self) -> int:
        """Number of independent energy observations per class, S*M."""
        return self.reps * self.antennas


class RandomSource:
    """Deterministic random stream with independent child splitting.

    ``seed`` is an int >= 0 or a ``numpy.random.SeedSequence``. The same
    seed and the same call sequence reproduce draws bit for bit. ``split`` derives
    statistically independent child streams, so Monte Carlo trials can be
    partitioned without overlapping randomness: each sweep job draws from
    its own child, whichever pool worker runs it.
    """

    def __init__(self, seed: int | np.random.SeedSequence):
        if not isinstance(seed, np.random.SeedSequence):
            check_count(0, seed=seed)
            seed = np.random.SeedSequence(seed)
        self._seq = seed
        self.generator = np.random.Generator(np.random.PCG64(self._seq))

    @property
    def seed(self):
        return self._seq.entropy

    def split(self, n: int) -> list["RandomSource"]:
        """Derive ``n`` independent child sources."""
        check_count(1, n=n)
        return [RandomSource(s) for s in self._seq.spawn(n)]

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed!r})"


def check_labels(labels, pop: DevicePopulation, num_classes: int | None = None) -> np.ndarray:
    """The N device labels of ``pop`` from any (N, K) array-like, such as a
    list of :class:`SoftLabel`, as a float64 array with rows checked by
    :func:`check_simplex`; K must equal ``num_classes`` when given."""
    q = check_simplex(labels)
    k = q.shape[-1] if num_classes is None else num_classes
    if q.shape != (pop.num_devices, k):
        raise ValueError(f"labels of shape {q.shape} for {pop.num_devices} devices "
                         f"and {k} classes")
    return q


def weighted_average(labels, pop: DevicePopulation) -> SoftLabel:
    """Weighted mean of the device soft labels, sum_i omega_i * q_i, from
    the N labels (:func:`check_labels`).

    This is the aggregation target; the result is a convex combination and
    therefore itself a valid soft label.
    """
    return SoftLabel(pop.omegas @ check_labels(labels, pop))

"""Domain types shared by every module: soft labels, device populations,
round parameters, and the deterministic random-source contract.

All stochastic operations in this package take an explicit :class:`RandomSource`;
there is no global RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from typing import Sequence

import numpy as np

# |sum(q) - 1| allowed after accumulated rounding (safe up to K ~ 1e4).
SIMPLEX_SUM_TOL = 1e-9
# Entries this far below zero are treated as floating-point dust and clipped.
NEGATIVITY_TOL = 1e-12


class NegativeEntry(ValueError):
    """A probability entry is materially negative."""


class NotNormalized(ValueError):
    """Entries do not sum to one within tolerance."""


class NonFiniteEntry(ValueError):
    """An entry is NaN or infinite."""


class BadLength(ValueError):
    """Vector has fewer than two classes."""


class LengthMismatch(ValueError):
    """Inputs disagree on the number of devices or classes."""


class BadRange(ValueError):
    """Interval is empty or nonpositive."""


def check_simplex(v, totals=1.0) -> np.ndarray:
    """Check the rows (trailing axis) of ``v``, vectorized over leading axes:
    K >= 2 entries each, finite and not below -NEGATIVITY_TOL, each row summing
    to its entry of ``totals`` within SIMPLEX_SUM_TOL * max(1, total). Returns
    a float64 copy with the negative dust clipped to exactly zero."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim < 1 or v.shape[-1] < 2:
        raise BadLength(f"rows need K >= 2 entries, got shape {v.shape}")
    totals = np.asarray(totals, dtype=np.float64)
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(totals))):
        raise NonFiniteEntry("entries and row totals must be finite")
    if np.any(v < -NEGATIVITY_TOL):
        raise NegativeEntry(f"negative probability {float(v.min())!r}")
    sums = v.sum(axis=-1)
    bad = np.abs(sums - totals) > SIMPLEX_SUM_TOL * np.maximum(1.0, totals)
    if np.any(bad):
        expected = float(np.broadcast_to(totals, bad.shape)[bad][0])
        raise NotNormalized(f"entries sum to {float(sums[bad][0])!r}, expected {expected!r}")
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
            raise BadLength(f"soft label must be a vector, got shape {v.shape}")
        probs = check_simplex(v)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @property
    def num_classes(self) -> int:
        return self.probs.size

    def __len__(self) -> int:
        return self.probs.size


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
            raise LengthMismatch("per-device arrays must be vectors of equal length")
        for f, v in zip(fields(self), vecs):
            v.flags.writeable = False
            object.__setattr__(self, f.name, v)
        omegas, betas_true, betas_assumed, power_caps = vecs
        if omegas.size < 1:
            raise ValueError("population needs at least one device")
        if not np.isfinite(vecs).all():
            raise NonFiniteEntry("per-device entries must be finite")
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
            raise NotNormalized(f"device weights sum to {total!r}, expected 1")

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
    setting Enum; a string must be one of the setting's values."""
    for name, kind in kinds.items():
        object.__setattr__(obj, name, kind(getattr(obj, name)))


def check_range(**ranges: tuple[float, float] | None) -> None:
    """Reject intervals unless 0 < lo <= hi < inf; None means no interval."""
    for name, r in ranges.items():
        if r is not None and not 0.0 < r[0] <= r[1] < np.inf:
            raise BadRange(f"{name} needs 0 < lo <= hi, got {tuple(r)}")


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
        if self.num_classes < 2:
            raise BadLength(f"need K >= 2 classes, got {self.num_classes}")
        if self.reps < 1 or self.antennas < 1:
            raise ValueError("reps and antennas must be >= 1")
        if not 0 < self.rho < np.inf:
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
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

    The same seed and the same call sequence reproduce draws bit for bit.
    ``split`` derives statistically independent child streams, so Monte Carlo
    trials can be partitioned without overlapping randomness.
    """

    def __init__(self, seed: int):
        self._seq = np.random.SeedSequence(seed)
        self.generator = np.random.Generator(np.random.PCG64(self._seq))

    @classmethod
    def _from_sequence(cls, seq: np.random.SeedSequence) -> "RandomSource":
        obj = cls.__new__(cls)
        obj._seq = seq
        obj.generator = np.random.Generator(np.random.PCG64(seq))
        return obj

    @property
    def seed(self):
        return self._seq.entropy

    def split(self, n: int) -> list["RandomSource"]:
        """Derive ``n`` independent child sources."""
        return [RandomSource._from_sequence(s) for s in self._seq.spawn(n)]

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed!r})"


def stack_labels(labels: Sequence[SoftLabel]) -> np.ndarray:
    """Stack N soft labels into an (N, K) matrix, checking consistent K."""
    if len(labels) == 0:
        raise LengthMismatch("no labels given")
    k = labels[0].num_classes
    if any(lab.num_classes != k for lab in labels):
        raise LengthMismatch("labels disagree on the number of classes")
    return np.stack([lab.probs for lab in labels])


def weighted_average(labels: Sequence[SoftLabel], pop: DevicePopulation) -> SoftLabel:
    """Weighted mean of the device soft labels, sum_i omega_i * q_i.

    This is the aggregation target; the result is a convex combination and
    therefore itself a valid soft label.
    """
    q = stack_labels(labels)
    if q.shape[0] != pop.num_devices:
        raise LengthMismatch(
            f"{q.shape[0]} labels for {pop.num_devices} devices"
        )
    return SoftLabel(pop.omegas @ q)

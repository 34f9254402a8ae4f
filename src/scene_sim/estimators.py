"""Receiver-side estimators: self-centering, ratio normalization, simplex
projection, and top-T label compression."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ReceivedEnergies
from .core import BadLength, RoundConfig, SoftLabel


class ZeroRho(ValueError):
    """Energy scale must be positive to undo the channel gain."""


class ZeroReference(ValueError):
    """Reference-slot energy is missing or zero."""


class AllNonpositive(ValueError):
    """Every ratio entry clipped to zero; nothing to renormalize."""


class BadT(ValueError):
    """Truncation size outside 1..K."""


@dataclass(frozen=True, eq=False)
class AggregateResult:
    """Output of one aggregation round.

    ``raw`` is the signed estimate the statistical claims are about; for the
    self-centering estimator its entries sum to one identically. ``projected``
    is the clipped-and-renormalized soft label actually handed to learners.
    ``centering_gain`` is the scale applied to energies: 1/(S*M*rho) for the
    self-centering estimator, 1/R for the ratio estimator.
    """

    raw: np.ndarray
    projected: SoftLabel
    centering_gain: float
    used_ratio: bool

    def __post_init__(self) -> None:
        r = np.array(self.raw, dtype=np.float64)
        r.flags.writeable = False
        object.__setattr__(self, "raw", r)


def clip_renormalize(v: np.ndarray) -> np.ndarray:
    """Clip negatives to zero and renormalize along the trailing (class) axis,
    vectorized over leading axes. A row with nothing positive becomes the
    uniform label, the zero-information anchor of the estimator."""
    clipped = np.maximum(v, 0.0)
    totals = clipped.sum(axis=-1, keepdims=True)
    uniform = np.full_like(clipped, 1.0 / v.shape[-1])
    return np.divide(clipped, totals, out=uniform, where=totals > 0)


def project_simplex(v: np.ndarray) -> SoftLabel:
    """Light projection of one vector onto the simplex by
    :func:`clip_renormalize`. Idempotent on valid soft labels."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size < 2:
        raise BadLength(f"need a vector of K >= 2 entries, got shape {v.shape}")
    return SoftLabel(clip_renormalize(v))


def reference_ratios(y: np.ndarray, y_ref: np.ndarray | float | None) -> np.ndarray:
    """Ratios q~_c = Y_c / R, vectorized over leading axes: ``y`` has the
    classes on its trailing axis and ``y_ref`` the leading shape of ``y``."""
    if y_ref is None:
        raise ZeroReference("received energies carry no reference slot")
    y_ref = np.asarray(y_ref, dtype=np.float64)
    if np.any(y_ref <= 0.0):
        raise ZeroReference(f"reference energy must be positive, got {float(y_ref.min())!r}")
    return y / y_ref[..., None]


def ratio_project(ratios: np.ndarray) -> np.ndarray:
    """Clip-renormalized ratios; a row with nothing positive carries no
    label information, so it raises instead of falling back to uniform."""
    if np.any(ratios.max(axis=-1) <= 0.0):
        raise AllNonpositive("all ratio entries are nonpositive")
    return clip_renormalize(ratios)


def scene_raw(y: np.ndarray, sample_count: int, rho: float) -> np.ndarray:
    """Self-centering estimate r_c = (Y_c - mean_j Y_j) / (S*M*rho) + 1/K.

    Vectorized over leading axes; the trailing axis indexes classes. The
    across-class mean subtraction cancels the unknown noise-energy offset and
    the 1/K anchor restores the simplex sum, so sum_c r_c = 1 identically.
    """
    if rho <= 0:
        raise ZeroRho(f"rho must be positive, got {rho}")
    y = np.asarray(y, dtype=np.float64)
    k = y.shape[-1]
    centered = y - y.mean(axis=-1, keepdims=True)
    return centered / (sample_count * rho) + 1.0 / k


def scene_estimate(y: ReceivedEnergies, cfg: RoundConfig) -> AggregateResult:
    """Self-centering estimate of the weighted soft-label average.

    Unbiased for calibrated devices under either channel model; variance
    decays as 1/(S*M). Statistical tests should look at ``raw``; projection
    introduces a (shrinking) bias.
    """
    if y.sample_count != cfg.sample_count:
        raise ValueError(
            f"energies aggregated over {y.sample_count} samples, "
            f"config says {cfg.sample_count}"
        )
    raw = scene_raw(y.y, cfg.sample_count, cfg.rho)
    return AggregateResult(
        raw=raw,
        projected=project_simplex(raw),
        centering_gain=1.0 / (cfg.sample_count * cfg.rho),
        used_ratio=False,
    )


def ratio_estimate(y: ReceivedEnergies) -> AggregateResult:
    """Reference-slot ratio estimate q~_c = Y_c / R, clip-renormalized.

    Dividing by the reference energy cancels the common received scale, so no
    gain knowledge is needed at all; heterogeneous per-device mismatch still
    reweights the average. ``raw`` holds the plain ratios (not sum-normalized).
    """
    ratios = reference_ratios(y.y, y.y_ref)
    return AggregateResult(
        raw=ratios,
        projected=SoftLabel(ratio_project(ratios)),
        centering_gain=1.0 / y.y_ref,
        used_ratio=True,
    )


def top_t_truncate(q: SoftLabel, t: int) -> tuple[SoftLabel, float]:
    """Keep the t largest entries (ties broken toward lower class index),
    zero the rest, renormalize. Returns the truncated label and the
    pre-truncation tail mass delta.

    The per-device L1 distortion equals 2*delta exactly, so weighted
    aggregates of truncated labels deviate from the full average by at most
    twice the weighted tail mass in L1.
    """
    k = q.num_classes
    if not 1 <= t <= k:
        raise BadT(f"need 1 <= t <= {k}, got {t}")
    order = np.argsort(-q.probs, kind="stable")
    keep = order[:t]
    kept_mass = float(q.probs[keep].sum())
    delta = max(1.0 - kept_mass, 0.0)
    out = np.zeros(k)
    out[keep] = q.probs[keep] / kept_mass
    return SoftLabel(out), delta

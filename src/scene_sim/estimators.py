"""Receiver-side estimators: self-centering, ratio normalization, simplex
projection, and top-T label compression."""

from __future__ import annotations

import numpy as np

from .core import RoundConfig, SoftLabel, check_count, check_scale


def clip_renormalize(v: np.ndarray) -> np.ndarray:
    """Clip negatives to zero and renormalize along the trailing (class) axis,
    vectorized over leading axes; ``v`` must be finite. A row with nothing
    positive becomes the uniform label, the estimator's zero-information anchor."""
    if not np.isfinite(v).all():
        raise ValueError("v must be finite: clip_renormalize got a nan or inf entry")
    out = np.maximum(v, 0.0)
    totals = out.sum(axis=-1, keepdims=True)
    positive = totals > 0
    np.divide(out, totals, out=out, where=positive)
    np.copyto(out, 1.0 / v.shape[-1], where=~positive)
    return out


def scene_raw(y: np.ndarray, sample_count: int, rho: float) -> np.ndarray:
    """Self-centering estimate r_c = (Y_c - mean_j Y_j) / (S*M*rho) + 1/K.

    Vectorized over leading axes; the trailing axis indexes classes. The
    across-class mean subtraction cancels the unknown noise-energy offset and
    the 1/K anchor restores the simplex sum, so sum_c r_c = 1 identically.
    """
    check_scale(rho=rho)
    check_count(1, sample_count=sample_count)
    y = np.asarray(y, dtype=np.float64)
    r = y - y.mean(axis=-1, keepdims=True)
    r /= sample_count * rho
    r += 1.0 / y.shape[-1]
    return r


def scene_estimate(y: np.ndarray, cfg: RoundConfig) -> tuple[np.ndarray, np.ndarray]:
    """Self-centering estimate of the weighted soft-label average from the
    energies ``y`` (classes on the trailing axis, any leading trial axes).

    Returns ``(raw, projected)``: :func:`scene_raw`, the signed estimate the
    statistical claims are about (unbiased for calibrated devices under
    either channel model, variance decaying as 1/(S*M)), and its
    :func:`clip_renormalize` projection, the soft label handed to learners.
    """
    if np.shape(y)[-1:] != (cfg.num_classes,):
        raise ValueError(f"y of shape {np.shape(y)} for {cfg.num_classes} classes")
    raw = scene_raw(y, cfg.sample_count, cfg.rho)
    return raw, clip_renormalize(raw)


def ratio_raw(y: np.ndarray, y_ref: np.ndarray | float | None) -> np.ndarray:
    """Reference-slot ratios q~_c = Y_c / R, vectorized over leading axes:
    ``y`` has the classes on its trailing axis and ``y_ref`` the leading
    shape of ``y``.

    Dividing by the reference energy cancels the common received scale, so no
    gain knowledge is needed at all; heterogeneous per-device mismatch still
    reweights the average. The ratios are not sum-normalized. A row with
    nothing positive carries no label information, so it raises instead of
    falling back to uniform.
    """
    if y_ref is None:
        raise ValueError("received energies carry no reference slot")
    y_ref = np.asarray(y_ref, dtype=np.float64)
    if y_ref.shape != np.shape(y)[:-1]:
        raise ValueError(f"y_ref shape {y_ref.shape} is not the leading shape of y {np.shape(y)}")
    if np.any(y_ref <= 0.0):
        raise ValueError(f"reference energy must be positive, got {float(y_ref.min())!r}")
    ratios = y / y_ref[..., None]
    if np.any(ratios.max(axis=-1) <= 0.0):
        raise ValueError("all ratio entries are nonpositive")
    return ratios


def ratio_estimate(
    y: np.ndarray, y_ref: np.ndarray | float | None
) -> tuple[np.ndarray, np.ndarray]:
    """Reference-slot ratio estimate: ``(ratios, projected)``, the
    :func:`ratio_raw` ratios and their :func:`clip_renormalize` projection."""
    ratios = ratio_raw(y, y_ref)
    return ratios, clip_renormalize(ratios)


def top_t_truncate(q: SoftLabel, t: int) -> tuple[SoftLabel, float]:
    """Keep the t largest entries (ties broken toward lower class index),
    zero the rest, renormalize. Returns the truncated label and the
    pre-truncation tail mass delta.

    The per-device L1 distortion equals 2*delta exactly, so weighted
    aggregates of truncated labels deviate from the full average by at most
    twice the weighted tail mass in L1.
    """
    k = q.num_classes
    check_count(1, t=t)
    if t > k:
        raise ValueError(f"need 1 <= t <= {k}, got {t}")
    order = np.argsort(-q.probs, kind="stable")
    keep = order[:t]
    kept_mass = float(q.probs[keep].sum())
    delta = max(1.0 - kept_mass, 0.0)
    out = np.zeros(k)
    out[keep] = q.probs[keep] / kept_mass
    return SoftLabel(out), delta

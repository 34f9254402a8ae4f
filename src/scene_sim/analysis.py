"""Closed-form evaluators: bias under gain mismatch, variance bounds, the
exact second moments of the received energies, noise calibration, and the
coherent-vs-noncoherent crossover model.

``labels`` arguments take the N device labels as any (N, K) array-like, such
as a list of :class:`core.SoftLabel`, with rows checked by
:func:`core.check_simplex`."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (ChannelModel, DevicePopulation, RoundConfig, check_count, check_scale,
                   check_simplex, check_snr, csv_cell)

CROSSOVER_CSV_HEADER = "B,P,c_coh,c_nc,mse_coh,mse_nc,scene_wins"


def mismatch_bias(pop: DevicePopulation, labels) -> np.ndarray:
    """Exact bias of the self-centering estimate under gain mismatch:
    E[r_c] - qbar_c = sum_i omega_i (gamma_i - 1) (q_{i,c} - 1/K).

    Depends only on first moments, so it holds under either channel model.
    The entries sum to zero (each device term does).
    """
    q = check_simplex(labels)
    if q.shape[0] != pop.num_devices:
        raise ValueError(f"{q.shape[0]} labels for {pop.num_devices} devices")
    k = q.shape[1]
    coeff = pop.omegas * (pop.gammas - 1.0)
    return coeff @ (q - 1.0 / k)


def mismatch_bias_bound(delta: float, k: int) -> float:
    """Worst-case L2 bias when every |gamma_i - 1| <= delta:
    delta * sqrt((K-1)/K). Attained by a single device at a simplex vertex.
    """
    if not 0 <= delta < math.inf:
        raise ValueError(f"delta must be >= 0 and finite, got {delta}")
    check_count(2, k=k)
    return delta * math.sqrt((k - 1) / k)


def noise_energy_variance(cfg: RoundConfig) -> float:
    """Variance sigma_N^4 of one complex-Gaussian noise energy sample (the
    energy is exponential with mean sigma_N^2). The estimate variances divide
    it by rho^2, so a noise term sigma_N^4 / rho^2 past the float64 range
    raises a ``ValueError`` naming ``noise_var``."""
    noise_var, rho = float(cfg.noise_var), float(cfg.rho)
    if not noise_var * noise_var / (rho * rho) * 2.0 < math.inf:  # inf past the range, ** raises
        raise ValueError(f"noise_var {noise_var!r} at rho {rho!r}: the noise term "
                         "noise_var^2 / rho^2 overflows")
    return cfg.noise_var**2


def variance_bound(pop: DevicePopulation, labels, cfg: RoundConfig) -> np.ndarray:
    """Per-class upper bound on Var(r_c) for calibrated devices:
    (2 / (S*M)) * (sum_i omega_i^2 q_{i,c}^2 + sigma_N^4 / rho^2).

    An upper bound with roughly a factor-two slack in balanced configurations;
    it assumes the per-class noise floor is not vanishingly small relative to
    the across-class energy spread.
    """
    q = check_simplex(labels)
    signal = (pop.omegas**2) @ (q**2)
    noise = noise_energy_variance(cfg) / cfg.rho**2
    return (2.0 / cfg.sample_count) * (signal + noise)


def energy_covariance(pop: DevicePopulation, labels, cfg: RoundConfig) -> np.ndarray:
    """Exact covariance of the received slot energies (Y_1 .. Y_K[, R]) of
    one round under either channel model, correlated or not; the reference
    slot R, sending each eta_i, is appended when ``cfg.use_reference_re``.

    a_ic = rho omega_i gamma_i q_ic is the mean energy device i puts in one
    sample of slot c, A_c = sum_i a_ic, and F = sum_{s,s'} time_corr^|s-s'| *
    sum_{m,m'} space_corr^|m-m'| (S*M without correlation).
    SUPERPOSITION: every sample of a slot is CN(0, A_c + sigma_N^2), and the
    slots share the fading magnitudes, so Var(Y_c) = S*M (A_c + sigma_N^2)^2
    + (F - S*M) sum_i a_ic^2 and Cov(Y_c, Y_d) = F sum_i a_ic a_id.
    DIAGONAL: the slots are independent, Var(Y_c) = F sum_i a_ic^2 + S*M sigma_N^4.
    """
    q = check_simplex(labels)
    if q.shape != (pop.num_devices, cfg.num_classes):
        raise ValueError(f"labels of shape {q.shape} for {pop.num_devices} devices "
                         f"and {cfg.num_classes} classes")
    if cfg.use_reference_re:
        q = np.column_stack([q, np.ones(len(q))])
    a = (cfg.rho * pop.omegas * pop.gammas)[:, None] * q
    f = 1.0
    for count, corr in ((cfg.reps, cfg.time_corr), (cfg.antennas, cfg.space_corr)):
        lag = np.arange(count)
        f *= float((corr ** np.abs(lag[:, None] - lag)).sum())
    sm, a2, noise2 = cfg.sample_count, (a**2).sum(axis=0), noise_energy_variance(cfg)
    if cfg.channel_model is ChannelModel.DIAGONAL:
        return np.diag(f * a2 + sm * noise2)
    return f * (a.T @ a) + np.diag(sm * ((a.sum(axis=0) + cfg.noise_var) ** 2 - a2))


def scene_variance(pop: DevicePopulation, labels, cfg: RoundConfig) -> np.ndarray:
    """Exact Var(r_c) of the self-centering estimate under either channel
    model: r = P Y / (S*M*rho) + 1/K with P = I - 11^T/K, so
    Var(r) = diag(P Sigma_Y P) / (S*M*rho)^2 with Sigma_Y the class block of
    :func:`energy_covariance`."""
    k = cfg.num_classes
    p = np.eye(k) - 1.0 / k
    cov = energy_covariance(pop, labels, cfg)[:k, :k]
    return np.diag(p @ cov @ p) / cfg.sample_count**2 / cfg.rho**2


def scene_variance_diagonal(pop: DevicePopulation, labels, cfg: RoundConfig) -> np.ndarray:
    """:func:`scene_variance` under the diagonal model, whatever
    ``cfg.channel_model`` says."""
    return scene_variance(pop, labels, replace(cfg, channel_model=ChannelModel.DIAGONAL))


def calibrate_noise(rho: float, k: int, snr_db: float) -> float:
    """Noise power realizing a target per-resource-element SNR.

    Uses the class-averaged signal power rho/K (the total received signal
    energy across the K slots is rho, independent of the unknown label mix):
    sigma_N^2 = (rho / K) / 10^(snr_db / 10).
    """
    check_scale(rho=rho)
    check_count(2, k=k)
    check_snr(snr_db=snr_db)
    noise = (rho / k) / 10.0 ** (snr_db / 10.0)
    if not 0.0 < noise < math.inf:
        raise ValueError(f"snr_db {snr_db} at rho {rho!r} puts noise_var outside the float range")
    return noise


@dataclass(frozen=True)
class CrossoverModel:
    """Round-budget model comparing pilot-based coherent aggregation with the
    pilot-free noncoherent scheme.

    ``budget`` is the per-round resource-element budget B and ``c_coh``/``c_nc``
    scheme-dependent MSE constants absorbing everything beyond the common
    1/(M*S) averaging law. A coherent design spends P of the B REs on channel
    acquisition, so it repeats S_coh = (B-P)/K times against S_nc = B/K. MSEs
    are per receive antenna (M = 1); the comparison does not depend on M.
    """

    budget: int
    c_coh: float
    c_nc: float
    num_classes: int

    def __post_init__(self) -> None:
        check_count(1, budget=self.budget)
        check_count(2, num_classes=self.num_classes)
        constants = {"c_coh": self.c_coh, "c_nc": self.c_nc}  # the MSEs peak at P = B - 1
        for (name, c), mse in zip(constants.items(), self.mse(self.budget - 1)):
            if not 0 < c < math.inf:
                raise ValueError(f"MSE constant {name} must be positive and finite, got {c}")
            if not math.isfinite(mse):
                raise ValueError(f"MSE constant {name} = {c} overflows the round MSE")

    @property
    def p_threshold(self) -> float:
        """Pilot cost from which the pilot-free scheme wins:
        max(0, (1 - c_coh/c_nc) * B)."""
        return max(0.0, (1.0 - self.c_coh / self.c_nc) * self.budget)

    def _check(self, pilot_cost: int) -> None:
        check_count(0, pilot_cost=pilot_cost)
        if pilot_cost >= self.budget:
            raise ValueError(f"need 0 <= P < B, got P={pilot_cost}, B={self.budget}")

    def mse(self, pilot_cost: int) -> tuple[float, float]:
        """Round MSEs ``(c_coh / S_coh, c_nc / S_nc)`` at pilot cost P."""
        self._check(pilot_cost)
        k = self.num_classes
        return self.c_coh / ((self.budget - pilot_cost) / k), self.c_nc / (self.budget / k)

    def scene_wins(self, pilot_cost: int) -> bool:
        """True when the noncoherent scheme has the lower round MSE at pilot
        cost P: c_nc / B <= c_coh / (B - P)."""
        self._check(pilot_cost)
        return self.c_nc / self.budget <= self.c_coh / (self.budget - pilot_cost)

    def csv_row(self, pilot_cost: int) -> str:
        """One row under ``CROSSOVER_CSV_HEADER``: the round MSEs of both
        schemes at ``pilot_cost`` (17 significant digits) and whether SCENE
        wins there."""
        cells = (self.budget, pilot_cost, self.c_coh, self.c_nc, *self.mse(pilot_cost),
                 int(self.scene_wins(pilot_cost)))
        return ",".join(map(csv_cell, cells))

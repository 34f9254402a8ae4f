"""Closed-form evaluators: bias under gain mismatch, variance bounds,
effective sample sizes under correlation, noise calibration, and the
coherent-vs-noncoherent crossover model."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DevicePopulation, RoundConfig, SoftLabel, stack_labels

# Autocorrelation sums are truncated at this lag; the geometric tails that
# appear in practice contribute < 1e-19 beyond it.
ACF_MAX_LAG = 64

CROSSOVER_CSV_HEADER = "B,P,c_coh,c_nc,mse_coh,mse_nc,scene_wins"


class NegativeDelta(ValueError):
    """Mismatch radius must be nonnegative."""


class BadBudget(ValueError):
    """Pilot cost must satisfy 0 <= P < B."""


class DivergentACF(ValueError):
    """Correlation sum drove an effective sample count nonpositive."""


def mismatch_bias(pop: DevicePopulation, labels: Sequence[SoftLabel]) -> np.ndarray:
    """Exact bias of the self-centering estimate under gain mismatch:
    E[r_c] - qbar_c = sum_i omega_i (gamma_i - 1) (q_{i,c} - 1/K).

    Depends only on first moments, so it holds under either channel model.
    The entries sum to zero (each device term does).
    """
    q = stack_labels(labels)
    if q.shape[0] != pop.num_devices:
        raise ValueError(f"{q.shape[0]} labels for {pop.num_devices} devices")
    k = q.shape[1]
    coeff = pop.omegas * (pop.gammas - 1.0)
    return coeff @ (q - 1.0 / k)


def mismatch_bias_bound(delta: float, k: int) -> float:
    """Worst-case L2 bias when every |gamma_i - 1| <= delta:
    delta * sqrt((K-1)/K). Attained by a single device at a simplex vertex.
    """
    if delta < 0:
        raise NegativeDelta(f"delta must be >= 0, got {delta}")
    if k < 2:
        raise ValueError(f"need K >= 2, got {k}")
    return delta * math.sqrt((k - 1) / k)


def noise_energy_variance(noise_var: float) -> float:
    """Variance of one complex-Gaussian noise energy sample: sigma_N^4
    (the energy is exponential with mean sigma_N^2)."""
    return noise_var**2


def variance_bound(
    pop: DevicePopulation, labels: Sequence[SoftLabel], cfg: RoundConfig
) -> np.ndarray:
    """Per-class upper bound on Var(r_c) for calibrated devices:
    (2 / (S*M)) * (sum_i omega_i^2 q_{i,c}^2 + sigma_N^4 / rho^2).

    An upper bound with roughly a factor-two slack in balanced configurations;
    it assumes the per-class noise floor is not vanishingly small relative to
    the across-class energy spread.
    """
    q = stack_labels(labels)
    signal = (pop.omegas**2) @ (q**2)
    noise = noise_energy_variance(cfg.noise_var) / cfg.rho**2
    return (2.0 / cfg.sample_count) * (signal + noise)


def scene_variance_diagonal(
    pop: DevicePopulation, labels: Sequence[SoftLabel], cfg: RoundConfig
) -> np.ndarray:
    """Exact Var(r_c) under the diagonal channel model, correlated or not.

    With independent class energies, Var(Y_c - Ybar) expands exactly to
    (1 - 2/K) Var(Y_c) + (1/K^2) sum_j Var(Y_j), and the per-sample energy
    variance is f * sum_i (rho omega_i gamma_i q_{i,c})^2 + sigma_N^4. The
    factor f = ||C||_F^2 / (S*M) of the fading correlation C (see ``channel``)
    is sum_{s,s'} time_corr^|s-s'| * sum_{m,m'} space_corr^|m-m'| / (S*M).
    """
    q = stack_labels(labels)
    k = q.shape[1]
    frobenius2 = 1.0
    for count, corr in ((cfg.reps, cfg.time_corr), (cfg.antennas, cfg.space_corr)):
        lag = np.arange(count)
        frobenius2 *= float((corr ** np.abs(lag[:, None] - lag)).sum())
    per_sample = (
        frobenius2 / cfg.sample_count * cfg.rho**2 * ((pop.omegas * pop.gammas) ** 2) @ (q**2)
        + noise_energy_variance(cfg.noise_var)
    )
    centered = (1.0 - 2.0 / k) * per_sample + per_sample.sum() / k**2
    return centered / (cfg.sample_count * cfg.rho**2)


def effective_samples(
    s: int,
    m: int,
    time_acf: Sequence[float] | np.ndarray,
    space_acf: Sequence[float] | np.ndarray,
) -> tuple[float, float]:
    """Effective sample counts under weakly dependent averaging:
    S_eff = S / (1 + 2 sum_{tau>=1} acf_t(tau)) and likewise for M.

    ACF sequences start at lag 1 and are truncated at lag min(count-1, 64).
    Nonnegative ACFs cannot drive the denominator nonpositive; guarded anyway.
    """

    def _eff(count: int, acf) -> float:
        acf = np.asarray(acf, dtype=np.float64)
        lags = min(count - 1, ACF_MAX_LAG)
        denom = 1.0 + 2.0 * float(acf[:lags].sum())
        if denom <= 0.0:
            raise DivergentACF(f"ACF sum gives nonpositive denominator {denom}")
        return count / denom

    return _eff(s, time_acf), _eff(m, space_acf)


def ar1_acf(phi: float, lags: int = ACF_MAX_LAG) -> np.ndarray:
    """Geometric autocorrelation sequence phi^tau for tau = 1..lags."""
    if not (0.0 <= phi < 1.0):
        raise ValueError(f"phi must lie in [0, 1), got {phi}")
    return phi ** np.arange(1, lags + 1)


def calibrate_noise(rho: float, k: int, snr_db: float) -> float:
    """Noise power realizing a target per-resource-element SNR.

    Uses the class-averaged signal power rho/K (the total received signal
    energy across the K slots is rho, independent of the unknown label mix):
    sigma_N^2 = (rho / K) / 10^(snr_db / 10).
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if k < 2:
        raise ValueError(f"need K >= 2, got {k}")
    return (rho / k) / 10.0 ** (snr_db / 10.0)


@dataclass(frozen=True)
class CrossoverModel:
    """Round-budget model comparing pilot-based coherent aggregation with the
    pilot-free noncoherent scheme.

    ``budget`` is the per-round resource-element budget B, ``pilot_cost`` the
    REs a coherent design spends on channel acquisition, and ``c_coh``/``c_nc``
    scheme-dependent MSE constants absorbing everything beyond the common
    1/(M*S) averaging law.
    """

    budget: int
    pilot_cost: int
    c_coh: float
    c_nc: float
    num_classes: int

    def __post_init__(self) -> None:
        if not 0 <= self.pilot_cost < self.budget:
            raise BadBudget(
                f"need 0 <= P < B, got P={self.pilot_cost}, B={self.budget}"
            )
        if not (0 < self.c_coh < math.inf and 0 < self.c_nc < math.inf):
            raise ValueError(
                f"MSE constants must be positive and finite, got {self.c_coh}, {self.c_nc}"
            )
        if self.num_classes < 2:
            raise ValueError("need K >= 2 classes")


@dataclass(frozen=True)
class CrossoverAnalysis:
    """Threshold and per-scheme quantities at the model's pilot cost.

    MSEs are reported per receive antenna (M = 1); the comparison between the
    two schemes does not depend on M.
    """

    p_threshold: float
    s_coh: float
    s_nc: float
    mse_coh: float
    mse_nc: float
    budget: int
    c_coh: float
    c_nc: float

    def scene_wins(self, pilot_cost: float) -> bool:
        """True when the noncoherent scheme has the lower round MSE at the
        given pilot cost: c_nc / B <= c_coh / (B - P)."""
        if not 0 <= pilot_cost < self.budget:
            raise BadBudget(
                f"need 0 <= P < B, got P={pilot_cost}, B={self.budget}"
            )
        return self.c_nc / self.budget <= self.c_coh / (self.budget - pilot_cost)


def crossover_threshold(model: CrossoverModel) -> CrossoverAnalysis:
    """Pilot-cost threshold above which the pilot-free scheme wins:
    P_threshold = max(0, (1 - c_coh/c_nc) * B).

    Also exposes the usable repetition counts S_coh = (B-P)/K, S_nc = B/K and
    the resulting round MSEs c/(M*S) at M = 1.
    """
    b = model.budget
    s_coh = (b - model.pilot_cost) / model.num_classes
    s_nc = b / model.num_classes
    return CrossoverAnalysis(
        p_threshold=max(0.0, (1.0 - model.c_coh / model.c_nc) * b),
        s_coh=s_coh,
        s_nc=s_nc,
        mse_coh=model.c_coh / s_coh,
        mse_nc=model.c_nc / s_nc,
        budget=b,
        c_coh=model.c_coh,
        c_nc=model.c_nc,
    )


def crossover_csv_row(res: CrossoverAnalysis, pilot_cost: int) -> str:
    """One row under ``CROSSOVER_CSV_HEADER``: the round MSEs of both schemes
    at ``pilot_cost`` (17 significant digits) and whether SCENE wins there."""
    return ",".join(
        [
            str(res.budget),
            str(pilot_cost),
            f"{res.c_coh:.17g}",
            f"{res.c_nc:.17g}",
            f"{res.mse_coh:.17g}",
            f"{res.mse_nc:.17g}",
            str(int(res.scene_wins(pilot_cost))),
        ]
    )

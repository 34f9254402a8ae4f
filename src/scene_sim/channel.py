"""Multi-access fading channel: large-scale gain sampling, Rayleigh fading,
noise, and per-class received energies.

Two received-energy models are provided. SUPERPOSITION forms the complex
baseband sum of all devices per (repetition, antenna) sample, with the fading
gain of a device shared across the K class slots of that sample and a fresh
uniform phase per slot. DIAGONAL adds per-device fading energies directly,
with fading drawn independently per class slot; class energies are then
mutually independent, which is the regime the variance identities assume.

SUPERPOSITION draws complex fading and noise samples in single precision (they
only feed Monte Carlo statistics); energies accumulate in double precision.
DIAGONAL draws none: the fading amplitudes of a (device, slot) pair are
CN(0, C), C = KMS_S(sqrt(time_corr)) (x) KMS_M(sqrt(space_corr)), so their
energy is exactly sum_g lam_g * Gamma(mult_g, 1) over the eigenvalue groups of
C (one Gamma(S*M, 1) without correlation); a slot's noise energy is
noise_var * Gamma(S*M, 1), since the noise is uncorrelated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BadRange, ChannelModel, DevicePopulation, RandomSource, RoundConfig, check_range
from .power import EnergyFrame

# Target element count of one vectorized chunk of trials.
_CHUNK_ELEMS = 8_000_000


class ShapeMismatch(ValueError):
    """Energy frame does not match the population or round configuration."""


@dataclass(frozen=True)
class PathlossModel:
    """Log-distance pathloss with lognormal shadowing.

    beta = d^(-exponent) * 10^(X/10) with d uniform on ``distance_range``
    (meters) and X zero-mean Gaussian with ``shadowing_std_db`` dB std.
    With ``normalize_mean`` the sampled gains are rescaled to unit empirical
    mean, which keeps transmit scales O(1) across populations.
    """

    exponent: float = 3.5
    distance_range: tuple[float, float] = (5.0, 50.0)
    shadowing_std_db: float = 8.0
    normalize_mean: bool = True

    def __post_init__(self) -> None:
        check_range(distance_range=self.distance_range)
        if self.exponent <= 0:
            raise ValueError("pathloss exponent must be positive")
        if self.shadowing_std_db < 0:
            raise ValueError("shadowing std must be >= 0")


def sample_pathloss(model: PathlossModel, n: int, rng: RandomSource) -> np.ndarray:
    """Draw n large-scale gains from the pathloss model (all positive)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    gen = rng.generator
    d_min, d_max = model.distance_range
    d = gen.uniform(d_min, d_max, n)
    shadow_db = gen.normal(0.0, model.shadowing_std_db, n)
    beta = d ** (-model.exponent) * 10.0 ** (shadow_db / 10.0)
    if model.normalize_mean:
        beta = beta / beta.mean()
    return beta


_INV_SQRT2 = np.float32(1.0 / math.sqrt(2.0))
_TWO_PI = np.float32(2.0 * math.pi)


def _complex_normal(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Standard circular complex Gaussian, complex64, unit variance."""
    z = gen.standard_normal(shape + (2,), dtype=np.float32).view(np.complex64)[..., 0]
    z *= _INV_SQRT2
    return z


def _ar1_filter_inplace(z: np.ndarray, coeff: float, axis: int) -> None:
    """Apply a stationary AR(1) recursion along ``axis``; unit marginal
    variance is preserved (innovations scaled by sqrt(1 - coeff^2))."""
    if coeff == 0.0:
        return
    a = np.float32(coeff)
    b = np.float32(math.sqrt(1.0 - coeff * coeff))
    zm = np.moveaxis(z, axis, 0)
    for t in range(1, zm.shape[0]):
        zm[t] = a * zm[t - 1] + b * zm[t]


def _sample_fading(
    gen: np.random.Generator, prefix: tuple[int, ...], cfg: RoundConfig
) -> np.ndarray:
    """Unit-variance complex fading block of shape prefix + (S, M).

    The correlation coefficients are specified in the energy domain: the
    squared magnitudes have autocorrelation time_corr^|ds| * space_corr^|dm|,
    so the underlying amplitude process uses the square roots. With both
    coefficients zero this reduces to i.i.d. draws (same stream consumption).
    """
    z = _complex_normal(gen, prefix + (cfg.reps, cfg.antennas))
    _ar1_filter_inplace(z, math.sqrt(cfg.time_corr), axis=-2)
    _ar1_filter_inplace(z, math.sqrt(cfg.space_corr), axis=-1)
    return z


def _kms_groups(n: int, corr: float) -> list[tuple[float, int]]:
    """Eigenvalue groups (value, multiplicity) of the n x n amplitude
    correlation matrix r^|i-j|, r = sqrt(corr): one group of size n when corr
    is zero, else the n eigenvalues."""
    if corr == 0.0:
        return [(1.0, n)]
    lag = np.arange(n)
    kms = math.sqrt(corr) ** np.abs(lag[:, None] - lag)
    return [(float(lam), 1) for lam in np.linalg.eigvalsh(kms)]


def _abs2_f64(z: np.ndarray) -> np.ndarray:
    return z.real.astype(np.float64) ** 2 + z.imag.astype(np.float64) ** 2


def _check_frame(energies: EnergyFrame, pop: DevicePopulation, cfg: RoundConfig) -> None:
    if energies.num_devices != pop.num_devices:
        raise ShapeMismatch(
            f"frame has {energies.num_devices} devices, population {pop.num_devices}"
        )
    if energies.num_classes != cfg.num_classes:
        raise ShapeMismatch(
            f"frame has {energies.num_classes} classes, config {cfg.num_classes}"
        )


def simulate_rounds(
    energies: EnergyFrame,
    pop: DevicePopulation,
    cfg: RoundConfig,
    rng: RandomSource,
    trials: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Vectorized multi-trial channel kernel.

    Returns ``(Y, y_ref)`` where Y has shape (trials, K) and y_ref shape
    (trials,) or None. An (N, K) frame is sent in every trial; a (T, N, K)
    frame needs T == ``trials`` and sends its row t in trial t, so T equal
    rows give the Y of their (N, K) frame bit for bit.
    Fading and noise are redrawn each trial, fading AR(1)-correlated across
    repetitions and antennas by ``cfg.time_corr``/``cfg.space_corr``.
    DIAGONAL draws each slot's fading and noise energies as the Gamma sums of
    the module docstring: the distribution of summing S*M complex samples,
    from another stream.
    Chunking is a pure implementation detail and fixed given the shapes, so
    results depend only on the arguments and the stream state.
    """
    _check_frame(energies, pop, cfg)
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if energies.energies.ndim == 3 and len(energies.energies) != trials:
        raise ShapeMismatch(f"frame has {len(energies.energies)} trials, call {trials}")
    n = pop.num_devices
    s, m = cfg.reps, cfg.antennas
    e_ext = energies.energies  # ([T,] N, K[+1]), reference slot appended when configured
    if cfg.use_reference_re:
        ref = np.broadcast_to(energies.eta[:, None], e_ext.shape[:-1] + (1,))
        e_ext = np.concatenate([e_ext, ref], axis=-1)
    kt = e_ext.shape[-1]
    beta = pop.betas_true
    gen = rng.generator

    out = np.empty((trials, kt), dtype=np.float64)
    superposition = cfg.channel_model is ChannelModel.SUPERPOSITION
    if superposition:
        per_trial = n * kt * s * m
        w = np.sqrt(beta[:, None] * e_ext).astype(np.float32)  # amplitudes
        noise_std = np.float32(math.sqrt(cfg.noise_var)) if cfg.noise_var > 0 else None
    else:
        groups = [
            (lam_t * lam_s, mult_t * mult_s)
            for lam_t, mult_t in _kms_groups(s, cfg.time_corr)
            for lam_s, mult_s in _kms_groups(m, cfg.space_corr)
        ]
        per_trial = n * kt * len(groups)
        w = beta[:, None] * e_ext
    w = np.broadcast_to(w, (trials, n, kt))  # row t is sent in trial t
    chunk = max(1, min(trials, _CHUNK_ELEMS // max(per_trial, 1)))

    for lo in range(0, trials, chunk):
        b = min(chunk, trials - lo)
        if superposition:
            # One fading realization per (device, rep, antenna), shared by all
            # class slots of that sample; independent phase per slot.
            g = _sample_fading(gen, (b, n), cfg)
            u = gen.random((b, n, kt, s, m), dtype=np.float32)
            u *= _TWO_PI
            phase = np.empty(u.shape, dtype=np.complex64)
            np.cos(u, out=phase.real)
            np.sin(u, out=phase.imag)
            sig = np.einsum("bik,bism,biksm->bksm", w[lo : lo + b], g, phase)
            if noise_std is not None:
                sig += _complex_normal(gen, (b, kt, s, m)) * noise_std
            out[lo : lo + b] = _abs2_f64(sig).sum(axis=(2, 3))
        else:
            wb = w[lo : lo + b]
            y = sum(
                lam * np.einsum("bik,bik->bk", gen.standard_gamma(mult, (b, n, kt)), wb)
                for lam, mult in groups
            )
            if cfg.noise_var > 0:
                y += gen.standard_gamma(s * m, (b, kt)) * cfg.noise_var
            out[lo : lo + b] = y
    if cfg.use_reference_re:
        return out[:, : cfg.num_classes], out[:, cfg.num_classes].copy()
    return out, None


def simulate_round(
    energies: EnergyFrame,
    pop: DevicePopulation,
    cfg: RoundConfig,
    rng: RandomSource,
) -> tuple[np.ndarray, float | None]:
    """Simulate one round: :func:`simulate_rounds` with a single trial.

    Returns ``(y, y_ref)``: the (K,) class energies, each summing |sample|^2
    over the S*M observations of its slot, and the reference-slot energy, or
    None without a reference slot. Under either model
    E[Y_c] = S*M * (sum_i beta_i E_{i,c} + noise_var), whatever the
    correlation coefficients in ``cfg``.
    """
    y, y_ref = simulate_rounds(energies, pop, cfg, rng, trials=1)
    return y[0], None if y_ref is None else float(y_ref[0])

"""Multi-access fading channel: large-scale gain sampling, Rayleigh fading,
noise, and per-class received energies.

Two received-energy models are provided. SUPERPOSITION forms the complex
baseband sum of all devices per (repetition, antenna) sample, with the fading
gain of a device shared across the K class slots of that sample and a fresh
uniform phase per slot. DIAGONAL adds per-device fading energies directly,
with fading drawn independently per class slot; class energies are then
mutually independent, which is the regime the variance identities assume.

Complex fading and noise samples are drawn in single precision (they only
feed Monte Carlo statistics); energies are accumulated in double precision.
The uncorrelated DIAGONAL model draws no complex samples: the S*M i.i.d.
Exp(1) fading energies of a (device, slot) pair sum to exactly one
Gamma(S*M, 1) draw, made in double precision, and the noise energy likewise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ChannelModel, DevicePopulation, RandomSource, RoundConfig
from .power import EnergyFrame

# Target element count of one vectorized chunk of trials.
_CHUNK_ELEMS = 8_000_000


class BadRange(ValueError):
    """Distance interval is empty or nonpositive."""


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
        d_min, d_max = self.distance_range
        if d_min <= 0 or d_min > d_max:
            raise BadRange(f"need 0 < d_min <= d_max, got {self.distance_range}")
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


@dataclass(frozen=True, eq=False)
class ReceivedEnergies:
    """Aggregated received energies of one round.

    ``y[c]`` sums |sample|^2 over the S*M observations of class slot c;
    ``y_ref`` is the same for the optional reference slot.
    """

    y: np.ndarray
    y_ref: float | None
    sample_count: int

    def __post_init__(self) -> None:
        y = np.array(self.y, dtype=np.float64)
        if np.any(y < 0):
            raise ValueError("received energies are sums of squares, got negative")
        y.flags.writeable = False
        object.__setattr__(self, "y", y)

    @property
    def num_classes(self) -> int:
        return self.y.size


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
    if cfg.use_reference_re and not energies.include_reference:
        raise ShapeMismatch("config requests a reference slot the frame lacks")


def _extended_energies(energies: EnergyFrame, cfg: RoundConfig) -> np.ndarray:
    """(N, K[+1]) energy matrix, reference slot appended when configured."""
    if cfg.use_reference_re:
        return np.column_stack([energies.energies, energies.reference_energies])
    return np.asarray(energies.energies)


def simulate_rounds(
    energies: EnergyFrame,
    pop: DevicePopulation,
    cfg: RoundConfig,
    rng: RandomSource,
    trials: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Vectorized multi-trial channel kernel.

    Returns ``(Y, y_ref)`` where Y has shape (trials, K) and y_ref shape
    (trials,) or None. Fading and noise are redrawn each trial, AR(1)-correlated
    across repetitions and antennas by ``cfg.time_corr``/``cfg.space_corr``.
    In the DIAGONAL model with both coefficients zero, the S*M fading energies
    of a (device, slot) pair are i.i.d. Exp(1), so their sum is drawn directly
    as Gamma(S*M, 1), and the slot's noise energy as noise_var * Gamma(S*M, 1):
    the same distribution as summing S*M complex samples, from another stream.
    Chunking is a pure implementation detail and fixed given the shapes, so
    results depend only on the arguments and the stream state.
    """
    _check_frame(energies, pop, cfg)
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    n = pop.num_devices
    s, m = cfg.reps, cfg.antennas
    e_ext = _extended_energies(energies, cfg)
    kt = e_ext.shape[1]
    beta = pop.betas_true
    gen = rng.generator
    noise_std = np.float32(math.sqrt(cfg.noise_var)) if cfg.noise_var > 0 else None

    out = np.empty((trials, kt), dtype=np.float64)
    superposition = cfg.channel_model is ChannelModel.SUPERPOSITION
    gamma_sums = not superposition and cfg.time_corr == 0.0 and cfg.space_corr == 0.0
    per_trial = n * kt if gamma_sums else n * kt * s * m
    chunk = max(1, min(trials, _CHUNK_ELEMS // max(per_trial, 1)))

    if superposition:
        amp = np.sqrt(beta[:, None] * e_ext).astype(np.float32)  # (N, Kt)
    elif gamma_sums:
        weights = beta[:, None] * e_ext  # (N, Kt)

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
            sig = np.einsum("ik,bism,biksm->bksm", amp, g, phase)
            if noise_std is not None:
                sig += _complex_normal(gen, (b, kt, s, m)) * noise_std
            out[lo : lo + b] = _abs2_f64(sig).sum(axis=(2, 3))
        elif gamma_sums:
            y = np.einsum("bik,ik->bk", gen.standard_gamma(s * m, (b, n, kt)), weights)
            if cfg.noise_var > 0:
                y += gen.standard_gamma(s * m, (b, kt)) * cfg.noise_var
            out[lo : lo + b] = y
        else:
            # Correlated fading, independent per class slot: class energies
            # decouple, but the S*M samples of a slot do not.
            g = _sample_fading(gen, (b, n, kt), cfg)
            h2 = _abs2_f64(g) * beta[None, :, None, None, None]
            y = np.einsum("ik,biksm->bk", e_ext, h2)
            if noise_std is not None:
                nz = _complex_normal(gen, (b, kt, s, m))
                y += _abs2_f64(nz).sum(axis=(2, 3)) * cfg.noise_var
            out[lo : lo + b] = y
    return _split_reference(out, cfg)


def _split_reference(out: np.ndarray, cfg: RoundConfig) -> tuple[np.ndarray, np.ndarray | None]:
    if cfg.use_reference_re:
        return out[:, : cfg.num_classes], out[:, cfg.num_classes].copy()
    return out, None


def simulate_round(
    energies: EnergyFrame,
    pop: DevicePopulation,
    cfg: RoundConfig,
    rng: RandomSource,
) -> ReceivedEnergies:
    """Simulate one round: :func:`simulate_rounds` with a single trial.

    Under either model E[Y_c] = S*M * (sum_i beta_i E_{i,c} + noise_var),
    whatever the correlation coefficients in ``cfg``.
    """
    y, y_ref = simulate_rounds(energies, pop, cfg, rng, trials=1)
    ref = float(y_ref[0]) if y_ref is not None else None
    return ReceivedEnergies(y[0], ref, cfg.sample_count)

"""Multi-access fading channel: large-scale gain sampling, Rayleigh fading,
noise, and per-class received energies.

Two received-energy models are provided. SUPERPOSITION forms the complex
baseband sum of all devices per (repetition, antenna) sample, with the fading
gain of a device shared across the K class slots of that sample and a fresh
uniform phase per slot. DIAGONAL adds per-device fading energies directly,
with fading drawn independently per class slot; class energies are then
mutually independent, which is the regime the variance identities assume.

SUPERPOSITION draws each device's fading magnitude r = |g| per (repetition,
antenna) sample and a uniform phase per class slot: g times an independent
uniform phase has the law of |g| times that phase, so the complex g is drawn
only under correlation (its AR(1) block, then |g|). Each phase is one 16-bit
piece of a raw PCG64 word times 2 pi / 2^16, four per word: a uniform draw on
the 65 536-point lattice of [0, 2 pi). E[e^(j n theta)] = 0 for every n not
divisible by 65 536, so every moment of the slot energies below that order is
the one of continuous uniform phases. Magnitudes, phases and the
real and imaginary slot sums are single precision; their energy
x2 = sum_{s,m} |x_sm|^2 is reduced in double precision. Given x2, the noisy
energy sum |x + n|^2 with n ~ CN(0, noise_var) has exactly the law
noise_var * Gamma(S*M - 1/2, 1) + (sqrt(x2) + sqrt(noise_var/2) * Z)^2, that
is (noise_var/2) * chi'^2_{2SM}(2 x2 / noise_var), so one Gamma and one normal
double draw per slot replace the 2*S*M noise samples.
DIAGONAL draws no samples: the fading amplitudes of a (device, slot) pair are
CN(0, C), C = KMS_S(sqrt(time_corr)) (x) KMS_M(sqrt(space_corr)), so their
energy is exactly sum_g lam_g * Gamma(mult_g, 1) over the eigenvalue groups of
C (one Gamma(S*M, 1) without correlation); a slot's noise energy is
noise_var * Gamma(S*M, 1), since the noise is uncorrelated.

Trials run in chunks of :func:`chunk_trials` trials, through one loop that
calls the model's chunk draw: :func:`_superpose` or :func:`_gamma_sums`. The
chunks fix the draws: each chunk draws its fading, phases and noise in one
fixed order, and a call of fewer trials is one short chunk. So a call split at
a multiple of the chunk makes exactly the same draws as one call, and returns
the same bits: a caller may stream a long run through several calls. A split
anywhere else moves draws, because :func:`_gamma_sums` draws each eigenvalue
group for the whole chunk before the next, and then the noise. A DIAGONAL
chunk is one work block of Gamma draws, which bounds the memory; a
SUPERPOSITION chunk runs its float work in work blocks of trials, which bound
the memory and change no output bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ChannelModel, DevicePopulation, RandomSource, RoundConfig, check_count, check_range
from .power import EnergyFrame

# Element budgets of a chunk of trials, which fixes the random stream, and of
# a work block, which bounds a worker's memory. A superposition chunk holds
# about _SUPER_CHUNK_ELEMS (trials, N, K[+1], S, M) phases, and its float work
# runs in blocks of trials holding at most _WORK_ELEMS of them; results do not
# depend on the block size. A diagonal chunk is one work block: at most
# _WORK_ELEMS Gamma draws over its eigenvalue groups (one trial when a trial
# has more).
_SUPER_CHUNK_ELEMS = 500_000
_WORK_ELEMS = 262_144


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
        if not 0 < self.exponent < math.inf:
            raise ValueError(f"exponent must be positive and finite, got {self.exponent}")
        std = self.shadowing_std_db
        if not 0 <= std < math.inf:
            raise ValueError(f"shadowing_std_db must be >= 0 and finite, got {std}")


def sample_pathloss(model: PathlossModel, n: int, rng: RandomSource) -> np.ndarray:
    """Draw n large-scale gains from the pathloss model (all positive)."""
    check_count(1, n=n)
    gen = rng.generator
    d_min, d_max = model.distance_range
    d = gen.uniform(d_min, d_max, n)
    shadow_db = gen.normal(0.0, model.shadowing_std_db, n)
    beta = d ** (-model.exponent) * 10.0 ** (shadow_db / 10.0)
    if model.normalize_mean:
        beta = beta / beta.mean()
    return beta


_INV_SQRT2 = np.float32(1.0 / math.sqrt(2.0))
# float32(2 pi) * 2^-16, the lattice step: scaling by a power of two is exact,
# so one multiply of a 16-bit piece k by it rounds k * 2^-16 * float32(2 pi).
_PHASE_STEP = np.float32(2.0 * math.pi) * np.float32(2.0**-16)


def _lattice_indices(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Fresh uint16 array of ``shape`` holding uniform indices k of the phase
    lattice k * 2 pi / 2^16, k = 0 .. 2^16 - 1, of [0, 2 pi).

    Each 64-bit ``random_raw`` word gives four 16-bit pieces k, low piece
    first; the unused pieces of the last word are dropped, so the generator
    advances by exactly ceil(size / 4) words.
    """
    size = math.prod(shape)
    words = gen.bit_generator.random_raw(-(-size // 4))
    return words.astype("<u8", copy=False).view("<u2")[:size].reshape(shape)


def _fading_magnitudes(
    gen: np.random.Generator, prefix: tuple[int, ...], cfg: RoundConfig
) -> np.ndarray:
    """Float32 magnitudes |g| of unit-variance Rayleigh fading, of shape
    prefix + (S, M): drawn directly without correlation, else as |g| of
    complex Gaussians AR(1)-filtered along S, then M, with innovations that
    keep unit variance. The coefficients are energy-domain (|g|^2 has
    autocorrelation time_corr^|ds| * space_corr^|dm|), so g uses their roots.
    """
    shape = prefix + (cfg.reps, cfg.antennas)
    if not (cfg.time_corr or cfg.space_corr):
        r = gen.standard_exponential(shape, dtype=np.float32)
        return np.sqrt(r, out=r)
    z = gen.standard_normal(shape + (2,), dtype=np.float32).view(np.complex64)[..., 0]
    z *= _INV_SQRT2
    for corr, axis in ((cfg.time_corr, -2), (cfg.space_corr, -1)):
        if corr == 0.0:
            continue
        coeff = math.sqrt(corr)
        a = np.float32(coeff)
        b = np.float32(math.sqrt(1.0 - coeff * coeff))
        zm = np.moveaxis(z, axis, 0)
        for t in range(1, zm.shape[0]):
            zm[t] = a * zm[t - 1] + b * zm[t]
    return np.abs(z)


def _gamma_groups(cfg: RoundConfig) -> list[tuple[float, int]]:
    """Eigenvalue groups (value, multiplicity) of the diagonal model's
    amplitude correlation C = KMS_S(sqrt(time_corr)) (x) KMS_M(sqrt(space_corr)),
    KMS_n(r) = r^|i-j|, time groups outer: one Gamma draw each per (device,
    slot). An uncorrelated axis of n samples is one group (1, n) and builds no
    matrix; a correlated one gives its n eigenvalues."""
    axes = []
    for n, corr in ((cfg.reps, cfg.time_corr), (cfg.antennas, cfg.space_corr)):
        if corr == 0.0:
            axes.append([(1.0, n)])
            continue
        lag = np.arange(n)
        kms = math.sqrt(corr) ** np.abs(lag[:, None] - lag)
        axes.append([(float(lam), 1) for lam in np.linalg.eigvalsh(kms)])
    time, space = axes
    return [(lam_t * lam_s, mult_t * mult_s) for lam_t, mult_t in time for lam_s, mult_s in space]


def chunk_trials(pop: DevicePopulation, cfg: RoundConfig) -> int:
    """Trials per chunk of :func:`simulate_rounds` for ``pop`` and ``cfg``: a
    call of more trials runs whole chunks of this size, then one short chunk,
    and a call of at most this many trials is one chunk. A trial holding more
    than the chunk budget makes one-trial chunks.

    A call split at a multiple of this count makes the same draws, and gives
    the same bits, as one call (module docstring).
    """
    n, kt = pop.num_devices, cfg.num_classes + cfg.use_reference_re
    if cfg.channel_model is ChannelModel.SUPERPOSITION:
        return max(1, _SUPER_CHUNK_ELEMS // (n * kt * cfg.reps * cfg.antennas))
    return max(1, _WORK_ELEMS // (n * kt * len(_gamma_groups(cfg))))


def _superpose(
    gen: np.random.Generator, w: np.ndarray, cfg: RoundConfig, theta: np.ndarray, trig: np.ndarray
) -> np.ndarray:
    """Noisy superposition energies (b, K[+1]) of one chunk of trials sending
    the float32 amplitudes ``w`` (b, N, K[+1]); ``theta`` and ``trig`` are
    (rows, N, K[+1], S, M) float32 work blocks, so the phases, their cos/sin
    and the slot sums are formed ``rows`` trials at a time.

    Each device's gain is drawn as its magnitude r, shared by the class slots
    of a sample, times a fresh uniform phase per slot; :func:`_lattice_indices`
    draws the phases of the whole chunk on a 2^16-point lattice, four per raw
    PCG64 word, after the magnitudes. The slot sums are two real contractions,
    and their energy x2 is reduced in float64. The noise energy given x2 is
    drawn exactly as in the module docstring.
    """
    b, n, kt = w.shape
    s, m = cfg.reps, cfg.antennas
    r = _fading_magnitudes(gen, (b, n), cfg)
    k = _lattice_indices(gen, (b, n, kt, s, m))
    x2 = np.empty((b, kt))
    rows = len(theta)
    for lo in range(0, b, rows):
        hi = min(lo + rows, b)
        th, tr = theta[: hi - lo], trig[: hi - lo]
        np.multiply(k[lo:hi], _PHASE_STEP, out=th, dtype=np.float32)  # one float32 loop
        parts = np.empty((2, hi - lo, kt, s, m), dtype=np.float32)  # real, imaginary
        for part, fn in zip(parts, (np.cos, np.sin)):
            fn(th, out=tr)
            np.einsum("bik,bism,biksm->bksm", w[lo:hi], r[lo:hi], tr, out=part)
        np.einsum("xbksm,xbksm->bk", parts, parts, dtype=np.float64, out=x2[lo:hi])
    if cfg.noise_var == 0:
        return x2
    y = gen.standard_gamma(s * m - 0.5, x2.shape) * cfg.noise_var
    y += (np.sqrt(x2) + math.sqrt(cfg.noise_var / 2) * gen.standard_normal(x2.shape)) ** 2
    return y


def _gamma_sums(
    gen: np.random.Generator, w: np.ndarray, cfg: RoundConfig, groups: list[tuple[float, int]]
) -> np.ndarray:
    """Noisy diagonal energies (b, K[+1]) of one chunk of trials sending the
    energies ``w`` (b, N, K[+1]): the Gammas of each eigenvalue group of
    :func:`_gamma_groups` for the whole chunk, then the noise energies."""
    y = np.zeros((len(w), w.shape[-1]))
    for lam, mult in groups:
        y += lam * np.einsum("bik,bik->bk", gen.standard_gamma(mult, w.shape), w)
    if cfg.noise_var > 0:
        y += gen.standard_gamma(cfg.reps * cfg.antennas, y.shape) * cfg.noise_var
    return y


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
    SUPERPOSITION draws fading magnitudes, phases and the exact noise energy
    (:func:`_superpose`), DIAGONAL each slot's fading and noise energies as
    Gamma sums (:func:`_gamma_sums`), one chunk of trials per call: both the
    distribution of summing S*M complex samples, from fewer draws.
    Chunking is a pure implementation detail and fixed given the shapes, so
    results depend only on the arguments and the stream state.
    """
    if energies.num_devices != pop.num_devices:
        raise ValueError(f"frame has {energies.num_devices} devices, population {pop.num_devices}")
    if energies.num_classes != cfg.num_classes:
        raise ValueError(f"frame has {energies.num_classes} classes, config {cfg.num_classes}")
    check_count(1, trials=trials)
    if energies.energies.ndim == 3 and len(energies.energies) != trials:
        raise ValueError(f"frame has {len(energies.energies)} trials, call {trials}")
    e_ext = energies.energies  # ([T,] N, K[+1]), reference slot appended when configured
    if cfg.use_reference_re:
        ref = np.broadcast_to(energies.eta[:, None], e_ext.shape[:-1] + (1,))
        e_ext = np.concatenate([e_ext, ref], axis=-1)
    n, kt = pop.num_devices, e_ext.shape[-1]
    beta = pop.betas_true
    chunk = min(trials, chunk_trials(pop, cfg))
    # Past the float32 range an amplitude turns inf, and past the float64
    # range an energy; that is checked once on the energies below.
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.channel_model is ChannelModel.SUPERPOSITION:
            sent = np.sqrt(beta[:, None] * e_ext).astype(np.float32)  # amplitudes
            # A device whose float32 amplitude sqrt(beta_i * eta_i) is below
            # the normal range sends nothing; one class entry may be that
            # small (Dirichlet labels), so the check is per device.
            amp = np.sqrt(beta * energies.eta).astype(np.float32)
            if np.any((energies.eta > 0) & (amp < np.finfo(np.float32).tiny)):
                raise ValueError(f"device amplitudes underflow float32 at rho {cfg.rho:.3g}: "
                                 "the energies are too small")
            rows = max(1, min(chunk, _WORK_ELEMS // (n * kt * cfg.reps * cfg.antennas)))
            theta = np.empty((rows, n, kt, cfg.reps, cfg.antennas), dtype=np.float32)
            draw, work = _superpose, (theta, np.empty_like(theta))  # reused by every chunk
        else:
            sent = beta[:, None] * e_ext
            draw, work = _gamma_sums, (_gamma_groups(cfg),)
        w = np.broadcast_to(sent, (trials, n, kt))  # row t is sent in trial t
        out = np.empty((trials, kt))
        gen = rng.generator
        for lo in range(0, trials, chunk):
            out[lo : lo + chunk] = draw(gen, w[lo : lo + chunk], cfg, *work)
    if not np.isfinite(out).all():
        raise ValueError(f"received energies overflow at noise_var {cfg.noise_var:.3g}: "
                         "the SNR is too low or the energies too large")
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

import math

import numpy as np
import pytest

from scene_sim import DevicePopulation, RandomSource
from scene_sim.fd import Divergence


@pytest.fixture
def rng():
    return RandomSource(12345)


def make_uniform_population(n, beta=1.0, cap=10.0):
    """n identical devices with equal weight and calibrated gains."""
    return DevicePopulation(
        np.full(n, 1.0 / n), np.full(n, beta), power_caps=np.full(n, cap)
    )


def extended_energies(energies, cfg):
    """([T,] N, K[+1]) energy array, reference slot appended when configured."""
    e = energies.energies
    if cfg.use_reference_re:
        ref = np.broadcast_to(energies.eta[:, None], e.shape[:-1] + (1,))
        return np.concatenate([e, ref], axis=-1)
    return e


def frozen_round(energies, pop, cfg, rng=None, trials=1):
    """Noise-free received energies with every |h_i|^2 pinned at beta_i and
    no cross-device terms: the closed form S*M * (beta @ E_ext) of each trial,
    reference slot included when configured. Called like ``simulate_rounds``
    (``rng`` unused) and returning its ``(Y, y_ref)``, so exact-value tests
    can stand it in for the channel."""
    assert cfg.noise_var == 0.0, "the closed form holds only without noise"
    assert energies.energies.ndim == 2 or len(energies.energies) == trials
    e_ext = extended_energies(energies, cfg)
    y = cfg.sample_count * (pop.betas_true @ e_ext)
    y = np.broadcast_to(y, (trials, y.shape[-1])).copy()
    if cfg.use_reference_re:
        return y[:, :-1], y[:, -1].copy()
    return y, None


def random_lattice_indices(gen, shape):
    """Reference draw of the superposition kernel's phase lattice indices:
    ceil(size / 4) raw PCG64 words, each cut by shifts into four 16-bit
    pieces k, lowest first, the first ``size`` of them returned as a uint16
    array of ``shape``. Called like ``channel._lattice_indices``."""
    size = math.prod(shape)
    words = gen.bit_generator.random_raw(-(-size // 4))
    k = (words[:, None] >> np.arange(0, 64, 16, dtype=np.uint64)) & np.uint64(0xFFFF)
    return k.reshape(-1)[:size].astype(np.uint16).reshape(shape)


def variance_se(x):
    """Standard error of the per-column sample variance via fourth moments."""
    t = x.shape[0]
    centered = x - x.mean(axis=0)
    m2 = (centered**2).mean(axis=0)
    m4 = (centered**4).mean(axis=0)
    return np.sqrt(np.maximum(m4 - (t - 3) / (t - 1) * m2**2, 0.0) / t)


def _cn(gen, shape):
    """Standard circular complex Gaussians CN(0, 1)."""
    return gen.standard_normal(shape + (2,)).view(np.complex128)[..., 0] / np.sqrt(2.0)


def _abs2(z):
    return z.real**2 + z.imag**2


def diagonal_reference_rounds(energies, pop, cfg, rng, trials):
    """Slow reference of the diagonal model: Y of shape (trials, K[+1])
    summing, sample by sample over the S*M observations, the energy
    beta_i E_{i,c} |h|^2 of every device and noise_var |n|^2. Each n is an
    independent CN(0, 1) draw. The h of a (device, slot) pair are CN(0, 1)
    draws run through stationary AR(1) recursions with coefficient
    sqrt(time_corr) across repetitions, then sqrt(space_corr) across antennas,
    so |h|^2 has autocorrelation time_corr^|ds| * space_corr^|dm|."""
    weights = pop.betas_true[:, None] * extended_energies(energies, cfg)
    gen = rng.generator
    shape = (trials,) + weights.shape
    a, b = np.sqrt(cfg.time_corr), np.sqrt(cfg.space_corr)
    y = np.zeros((trials, weights.shape[1]))
    along_time = [None] * cfg.antennas  # time-filtered h of the previous repetition
    for s in range(cfg.reps):
        for m in range(cfg.antennas):
            h = _cn(gen, shape)
            if s > 0:
                h = a * along_time[m] + np.sqrt(1 - a * a) * h
            along_time[m] = h
            if m > 0:
                h = b * prev + np.sqrt(1 - b * b) * h
            prev = h
            y += np.einsum("bik,ik->bk", _abs2(h), weights)
            y += cfg.noise_var * _abs2(_cn(gen, y.shape))
    return y


def superposition_reference_rounds(energies, pop, cfg, rng, trials, chunk=10_000):
    """Slow reference of the superposition model: the complex-sample kernel
    that drawing magnitudes and the exact noise energy replaced, chunk by
    chunk of trials. Y of shape (trials, K[+1]) sums, over the S*M samples of
    each slot, |sum_i sqrt(beta_i E_ic) g_ism e^(j theta_icsm) + n_csm|^2. The
    g are complex64 CN(0, 1) draws run through stationary AR(1) recursions
    with coefficient sqrt(time_corr) across repetitions, then sqrt(space_corr)
    across antennas; each theta is uniform on [0, 2 pi) and each n a
    CN(0, noise_var) draw."""
    w = np.sqrt(pop.betas_true[:, None] * extended_energies(energies, cfg)).astype(np.float32)
    n, kt = w.shape[-2:]
    w = np.broadcast_to(w, (trials, n, kt))
    s, m = cfg.reps, cfg.antennas
    gen = rng.generator

    def complex_normal(shape):
        z = gen.standard_normal(shape + (2,), dtype=np.float32).view(np.complex64)[..., 0]
        return z * np.float32(1 / np.sqrt(2.0))

    def ar1(z, corr, axis):
        coeff = math.sqrt(corr)
        a, b = np.float32(coeff), np.float32(math.sqrt(1.0 - coeff * coeff))
        zm = np.moveaxis(z, axis, 0)
        for t in range(1, zm.shape[0]):
            zm[t] = a * zm[t - 1] + b * zm[t]

    y = np.empty((trials, kt))
    for lo in range(0, trials, chunk):
        b = min(chunk, trials - lo)
        g = complex_normal((b, n, s, m))
        ar1(g, cfg.time_corr, -2)
        ar1(g, cfg.space_corr, -1)
        u = gen.random((b, n, kt, s, m), dtype=np.float32) * np.float32(2 * np.pi)
        phase = np.empty(u.shape, dtype=np.complex64)
        np.cos(u, out=phase.real)
        np.sin(u, out=phase.imag)
        sig = np.einsum("bik,bism,biksm->bksm", w[lo : lo + b], g, phase)
        sig += complex_normal((b, kt, s, m)) * np.float32(np.sqrt(cfg.noise_var))
        y[lo : lo + b] = _abs2(sig.astype(np.complex128)).sum(axis=(2, 3))
    return y


def reference_sgd(model, x, targets, epochs, batch_size, learning_rate, rng):
    """Slow reference of ``fd.train_lockstep`` for one model: the per-client
    loop it replaces. Each epoch shuffles with ``rng``, each batch gathers its
    rows of ``x`` by index and takes one SGD step on the mean KL loss, and
    the epoch ends with the full-shard loss. Updates ``model`` in place,
    returns the per-epoch losses and raises Divergence on a non-finite one."""
    gen = rng.generator
    n = x.shape[0]
    losses = []
    for _ in range(epochs):
        order = gen.permutation(n)
        for lo in range(0, n, batch_size):
            idx = order[lo : lo + batch_size]
            xb, tb = x[idx], targets[idx]
            p = model.predict_proba(xb)
            grad_scores = (p - tb) / len(idx)
            model.weights -= learning_rate * (xb.T @ grad_scores)
            model.bias -= learning_rate * grad_scores.sum(axis=0)
        p, t = model.predict_proba(x), targets
        with np.errstate(divide="ignore", invalid="ignore"):
            entropy_term = np.where(t > 0, t * np.log(np.where(t > 0, t, 1.0)), 0.0)
            cross = np.where(t > 0, t * np.log(p), 0.0)
        loss = float((entropy_term - cross).sum(axis=1).mean())
        if not math.isfinite(loss):
            raise Divergence(f"loss became {loss}")
        losses.append(loss)
    return losses

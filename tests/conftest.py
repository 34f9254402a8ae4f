import numpy as np
import pytest

from scene_sim import RandomSource, ReceivedEnergies, population_from_arrays


@pytest.fixture
def rng():
    return RandomSource(12345)


def make_uniform_population(n, beta=1.0, cap=10.0):
    """n identical devices with equal weight and calibrated gains."""
    return population_from_arrays(
        np.full(n, 1.0 / n), np.full(n, beta), power_caps=np.full(n, cap)
    )


def extended_energies(energies, cfg):
    """(N, K[+1]) energy matrix, reference slot appended when configured."""
    if cfg.use_reference_re:
        return np.column_stack([energies.energies, energies.reference_energies])
    return energies.energies


def frozen_round(energies, pop, cfg, rng=None):
    """Noise-free received energies with every |h_i|^2 pinned at beta_i and
    no cross-device terms: the closed form S*M * (beta @ E_ext), reference slot
    included when configured. Called like ``simulate_round`` (``rng`` unused),
    so exact-value tests can stand it in for the channel."""
    assert cfg.noise_var == 0.0, "the closed form holds only without noise"
    y = cfg.sample_count * (pop.betas_true @ extended_energies(energies, cfg))
    if cfg.use_reference_re:
        return ReceivedEnergies(y[:-1], float(y[-1]), cfg.sample_count)
    return ReceivedEnergies(y, None, cfg.sample_count)


def variance_se(x):
    """Standard error of the per-column sample variance via fourth moments."""
    t = x.shape[0]
    centered = x - x.mean(axis=0)
    m2 = (centered**2).mean(axis=0)
    m4 = (centered**4).mean(axis=0)
    return np.sqrt(np.maximum(m4 - (t - 3) / (t - 1) * m2**2, 0.0) / t)


def _cn_energy(gen, shape):
    """|z|^2 of standard circular complex Gaussians CN(0, 1)."""
    z = (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2.0)
    return np.abs(z) ** 2


def diagonal_reference_rounds(energies, pop, cfg, rng, trials):
    """Slow reference of the uncorrelated diagonal model: Y of shape
    (trials, K[+1]) summing, sample by sample over the S*M observations, the
    energy beta_i E_{i,c} |h|^2 of every device and noise_var |n|^2, with each
    h and n an independent CN(0, 1) draw."""
    assert cfg.time_corr == 0.0 and cfg.space_corr == 0.0
    weights = pop.betas_true[:, None] * extended_energies(energies, cfg)
    gen = rng.generator
    y = np.zeros((trials, weights.shape[1]))
    for _ in range(cfg.sample_count):
        y += np.einsum("bik,ik->bk", _cn_energy(gen, (trials,) + weights.shape), weights)
        y += cfg.noise_var * _cn_energy(gen, y.shape)
    return y

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


def frozen_round(energies, pop, cfg, rng=None):
    """Noise-free received energies with every |h_i|^2 pinned at beta_i and
    no cross-device terms: the closed form S*M * (beta @ E_ext), reference slot
    included when configured. Called like ``simulate_round`` (``rng`` unused),
    so exact-value tests can stand it in for the channel."""
    assert cfg.noise_var == 0.0, "the closed form holds only without noise"
    e_ext = energies.energies
    if cfg.use_reference_re:
        e_ext = np.column_stack([energies.energies, energies.reference_energies])
    y = cfg.sample_count * (pop.betas_true @ e_ext)
    if cfg.use_reference_re:
        return ReceivedEnergies(y[:-1], float(y[-1]), cfg.sample_count)
    return ReceivedEnergies(y, None, cfg.sample_count)

from dataclasses import replace

import numpy as np
import pytest

from scene_sim import (
    ChannelModel,
    DevicePopulation,
    PathlossModel,
    RandomSource,
    RoundConfig,
    SoftLabel,
    calibrate_noise,
    map_energies,
    sample_pathloss,
    scene_raw,
    scene_variance_diagonal,
    simulate_round,
    simulate_rounds,
)
from scene_sim import channel
from scene_sim.channel import BadRange, ShapeMismatch
from scene_sim.power import EnergyFrame

from conftest import (
    diagonal_reference_rounds,
    frozen_round,
    make_uniform_population,
    variance_se,
)


def frame_from_energies(e):
    e = np.atleast_2d(np.asarray(e, dtype=float))
    return EnergyFrame(e, e.sum(axis=1))


class TestSamplePathloss:
    def test_paper_parameterization(self, rng):
        model = PathlossModel(3.5, (5.0, 50.0), 8.0, normalize_mean=True)
        beta = sample_pathloss(model, 100, rng)
        assert beta.shape == (100,)
        assert np.all(beta > 0)
        assert beta.mean() == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_distance_all_equal(self, rng):
        model = PathlossModel(3.5, (7.0, 7.0), 0.0, normalize_mean=True)
        beta = sample_pathloss(model, 50, rng)
        assert np.allclose(beta, 1.0)

    def test_log_distance_formula(self, rng):
        # direct evaluation: d = 10 m, alpha = 3.5, no shadowing or rescaling
        model = PathlossModel(3.5, (10.0, 10.0), 0.0, normalize_mean=False)
        beta = sample_pathloss(model, 5, rng)
        assert np.allclose(beta, 10.0**-3.5)
        assert beta[0] == pytest.approx(3.1623e-4, rel=1e-4)

    def test_bad_range(self):
        with pytest.raises(BadRange):
            PathlossModel(3.5, (0.0, 10.0))
        with pytest.raises(BadRange):
            PathlossModel(3.5, (10.0, 5.0))


class TestFrozenClosedForm:
    """The frozen-fading closed form that exact-value tests use in place of
    the channel is the kernel's noise-free mean energy."""

    @staticmethod
    def assert_kernel_mean(frame, pop, cfg, seed):
        for model in ChannelModel:
            y, _ = simulate_rounds(
                frame, pop, replace(cfg, channel_model=model), RandomSource(seed), 50_000
            )
            se = y.std(axis=0, ddof=1) / np.sqrt(y.shape[0])
            y_frozen, _ = frozen_round(frame, pop, cfg)
            assert np.all(np.abs(y.mean(axis=0) - y_frozen[0]) <= 3 * se)

    def test_single_device_exact(self):
        pop = make_uniform_population(1)
        frame = frame_from_energies([[3.0, 1.0]])
        cfg = RoundConfig(num_classes=2, reps=1, antennas=1, noise_var=0.0)
        assert np.array_equal(frozen_round(frame, pop, cfg)[0], [[3.0, 1.0]])
        self.assert_kernel_mean(frame, pop, cfg, seed=9)

    def test_scales_with_sample_count_and_beta(self):
        pop = DevicePopulation([1.0], [2.0])
        frame = frame_from_energies([[3.0, 1.0]])
        cfg = RoundConfig(num_classes=2, reps=4, antennas=2, noise_var=0.0)
        assert np.allclose(frozen_round(frame, pop, cfg)[0], [[8 * 2 * 3.0, 8 * 2 * 1.0]])
        self.assert_kernel_mean(frame, pop, cfg, seed=10)


class TestSimulateRoundMoments:
    @pytest.mark.parametrize("model", list(ChannelModel))
    def test_mean_matches_both_models(self, model):
        # N=1, beta=1, E_c=2, sigma^2=0.5, S=4, M=2 -> E[Y_c] = 8*(2+0.5) = 20
        pop = make_uniform_population(1)
        frame = frame_from_energies([[2.0, 2.0]])
        cfg = RoundConfig(
            num_classes=2, reps=4, antennas=2, noise_var=0.5, channel_model=model
        )
        y, _ = simulate_rounds(frame, pop, cfg, RandomSource(1), trials=100_000)
        se = y.std(axis=0, ddof=1) / np.sqrt(y.shape[0])
        assert np.all(np.abs(y.mean(axis=0) - 20.0) <= 3 * se)

    def test_noise_only_exponential_energy(self):
        # |CN(0,1)|^2 is unit exponential: mean 1, variance 1
        pop = make_uniform_population(1)
        frame = frame_from_energies([[0.0, 0.0]])
        cfg = RoundConfig(num_classes=2, reps=1, antennas=1, noise_var=1.0)
        y, _ = simulate_rounds(frame, pop, cfg, RandomSource(2), trials=100_000)
        t = y.shape[0]
        assert np.all(np.abs(y.mean(axis=0) - 1.0) <= 3 / np.sqrt(t))
        # SE of the variance of an exponential is about sqrt(8/T) * mean^2
        assert np.all(np.abs(y.var(axis=0, ddof=1) - 1.0) <= 3 * np.sqrt(8 / t))

    def test_superposition_per_sample_variance(self):
        # per-sample aggregate is CN(0, m_c): energy exponential with
        # mean m_c + sigma^2, variance (m_c + sigma^2)^2
        pop = DevicePopulation([0.5, 0.5], [1.0, 2.0])
        energies = np.array([[2.0, 0.5], [1.0, 1.5]])
        frame = frame_from_energies(energies)
        sigma2 = 0.3
        cfg = RoundConfig(num_classes=2, reps=1, antennas=1, noise_var=sigma2)
        y, _ = simulate_rounds(frame, pop, cfg, RandomSource(3), trials=200_000)
        m_c = pop.betas_true @ energies
        expected_var = (m_c + sigma2) ** 2
        rel = np.abs(y.var(axis=0, ddof=1) / expected_var - 1.0)
        assert np.all(rel < 0.05)

    def test_diagonal_per_sample_variance(self):
        # Rayleigh: Var(E_i |h_i|^2) = E_i^2 beta_i^2; noise energy adds sigma^4
        pop = DevicePopulation([0.5, 0.5], [1.0, 2.0])
        energies = np.array([[2.0, 0.5], [1.0, 1.5]])
        frame = frame_from_energies(energies)
        sigma2 = 0.3
        cfg = RoundConfig(
            num_classes=2, reps=1, antennas=1, noise_var=sigma2,
            channel_model=ChannelModel.DIAGONAL,
        )
        y, _ = simulate_rounds(frame, pop, cfg, RandomSource(4), trials=200_000)
        expected_var = ((energies * pop.betas_true[:, None]) ** 2).sum(axis=0) + sigma2**2
        rel = np.abs(y.var(axis=0, ddof=1) / expected_var - 1.0)
        assert np.all(rel < 0.05)

    def test_empirical_per_re_snr(self):
        # signal power / noise power per slot should equal rho*qbar_c/sigma^2
        pop = make_uniform_population(3)
        gen = np.random.default_rng(0)
        labels = [SoftLabel(gen.dirichlet(np.full(4, 0.5))) for _ in range(3)]
        rho = 2.0
        frame = map_energies(labels, pop, rho)
        sigma2 = calibrate_noise(rho, 4, snr_db=10.0)
        cfg = RoundConfig(num_classes=4, reps=1, antennas=1, noise_var=0.0)
        y, _ = simulate_rounds(frame, pop, cfg, RandomSource(5), trials=200_000)
        qbar = np.mean([lab.probs for lab in labels], axis=0)
        snr_emp = y.mean(axis=0) / sigma2
        snr_true = rho * qbar / sigma2
        assert np.all(np.abs(snr_emp / snr_true - 1.0) < 0.05)
        # class-averaged empirical SNR matches the calibration target
        assert np.mean(snr_emp) / 10.0**1.0 == pytest.approx(1.0, abs=0.05)

    def test_reference_slot_mean(self):
        pop = DevicePopulation([0.6, 0.4], [1.5, 0.5])
        labels = [SoftLabel((0.7, 0.3)), SoftLabel((0.2, 0.8))]
        frame = map_energies(labels, pop, rho=1.0)
        cfg = RoundConfig(num_classes=2, reps=2, antennas=1, noise_var=0.1,
                          use_reference_re=True)
        y, ref = simulate_rounds(frame, pop, cfg, RandomSource(6), trials=100_000)
        # E[R] = S*M*(sum_i beta_i eta_i + sigma^2); gamma = 1 here so
        # sum_i beta_i eta_i = rho
        expected = 2 * (1.0 + 0.1)
        assert ref.mean() == pytest.approx(expected, rel=0.02)


class TestDiagonalGammaSums:
    """The diagonal kernel draws the fading energy of a slot as
    eigenvalue-weighted Gamma sums (one Gamma(S*M, 1) without correlation).
    Its moments must match the sample-by-sample AR(1) reference and the
    closed-form variance of the self-centering estimate."""

    # Two-sided 4-sigma bands: false-failure probability 6e-5 per comparison,
    # about 0.012 over the 12 cases x 4 comparisons x up to 4 slots.
    Z = 4.0

    @pytest.mark.parametrize("s, m", [(1, 1), (4, 4)])
    @pytest.mark.parametrize("snr_db", [None, 5.0])
    def test_moments_match_reference_and_closed_form(self, s, m, snr_db):
        self.check_moments(s, m, snr_db, 0.0, 0.0)

    @pytest.mark.parametrize("s, m", [(4, 4), (16, 1)])
    @pytest.mark.parametrize(
        "time_corr, space_corr", [(0.3, 0.0), (0.0, 0.2), (0.3, 0.2), (0.9, 0.0)]
    )
    def test_correlated_moments_match_reference_and_closed_form(
        self, s, m, time_corr, space_corr
    ):
        self.check_moments(s, m, 5.0, time_corr, space_corr)

    def check_moments(self, s, m, snr_db, time_corr, space_corr):
        pop = DevicePopulation(
            [0.4, 0.3, 0.2, 0.1], [1.6, 0.4, 1.0, 0.9], power_caps=np.full(4, 2.0)
        )
        labels = [
            SoftLabel(q)
            for q in ((0.7, 0.2, 0.1), (0.1, 0.8, 0.1), (0.3, 0.3, 0.4), (0.05, 0.05, 0.9))
        ]
        rho = 1.0
        cfg = RoundConfig(
            num_classes=3, reps=s, antennas=m, rho=rho,
            noise_var=0.0 if snr_db is None else calibrate_noise(rho, 3, snr_db),
            channel_model=ChannelModel.DIAGONAL, use_reference_re=True,
            time_corr=time_corr, space_corr=space_corr,
        )
        frame = map_energies(labels, pop, rho)
        y, y_ref = simulate_rounds(frame, pop, cfg, RandomSource(31), trials=400_000)
        fast = np.column_stack([y, y_ref])
        slow = diagonal_reference_rounds(frame, pop, cfg, RandomSource(32), 100_000)

        mean_se = np.sqrt(fast.var(axis=0) / len(fast) + slow.var(axis=0) / len(slow))
        assert np.all(np.abs(fast.mean(axis=0) - slow.mean(axis=0)) <= self.Z * mean_se)
        var_se = np.hypot(variance_se(fast), variance_se(slow))
        assert np.all(np.abs(fast.var(axis=0) - slow.var(axis=0)) <= self.Z * var_se)

        raw = scene_raw(y, cfg.sample_count, rho)
        qbar = pop.omegas @ np.stack([q.probs for q in labels])
        se = raw.std(axis=0, ddof=1) / np.sqrt(len(raw))
        assert np.all(np.abs(raw.mean(axis=0) - qbar) <= self.Z * se)
        exact = scene_variance_diagonal(pop, labels, cfg)
        assert np.all(np.abs(raw.var(axis=0, ddof=1) - exact) <= self.Z * variance_se(raw))


class TestSimulateRoundErrors:
    def test_shape_mismatch_devices(self, rng):
        pop = make_uniform_population(2)
        frame = frame_from_energies([[1.0, 1.0]])
        cfg = RoundConfig(num_classes=2)
        with pytest.raises(ShapeMismatch):
            simulate_round(frame, pop, cfg, rng)

    def test_shape_mismatch_classes(self, rng):
        pop = make_uniform_population(1)
        frame = frame_from_energies([[1.0, 1.0, 1.0]])
        cfg = RoundConfig(num_classes=2)
        with pytest.raises(ShapeMismatch):
            simulate_round(frame, pop, cfg, rng)


class TestSimulateRound:
    @pytest.mark.parametrize("model", list(ChannelModel))
    @pytest.mark.parametrize("reference", [False, True])
    def test_one_trial_of_simulate_rounds(self, model, reference):
        pop = make_uniform_population(2)
        frame = frame_from_energies([[1.0, 0.5], [0.7, 0.3]])
        cfg = RoundConfig(num_classes=2, reps=3, antennas=2, noise_var=0.2,
                          channel_model=model, use_reference_re=reference)
        y, y_ref = simulate_round(frame, pop, cfg, RandomSource(12))
        ys, refs = simulate_rounds(frame, pop, cfg, RandomSource(12), trials=1)
        assert y.shape == (2,) and np.array_equal(y, ys[0])
        if reference:
            assert type(y_ref) is float and y_ref == refs[0]
        else:
            assert y_ref is None and refs is None


# The two branches of the kernel, complex superposition and diagonal Gamma
# sums; the diagonal one with a single group (uncorrelated) and with many
# groups (correlated), which chunks by groups under the 50-element override.
KERNEL_BRANCHES = [
    dict(channel_model=ChannelModel.SUPERPOSITION),
    dict(channel_model=ChannelModel.DIAGONAL),
    dict(channel_model=ChannelModel.DIAGONAL, time_corr=0.3, space_corr=0.2),
]


class TestPerTrialFrames:
    """A (T, N, K) frame sends its row t in trial t of one kernel call."""

    @pytest.mark.parametrize("branch", KERNEL_BRANCHES)
    @pytest.mark.parametrize("reference", [False, True])
    @pytest.mark.parametrize("chunk_elems", [None, 50])
    def test_equal_rows_bit_identical(self, branch, reference, chunk_elems, monkeypatch):
        if chunk_elems is not None:  # many small chunks
            monkeypatch.setattr(channel, "_CHUNK_ELEMS", chunk_elems)
        pop = DevicePopulation([0.2, 0.3, 0.5], [0.6, 1.0, 1.7])
        q = np.random.default_rng(4).dirichlet(np.full(4, 0.5), size=3)
        cfg = RoundConfig(num_classes=4, reps=2, antennas=3, rho=0.8, noise_var=0.4,
                          use_reference_re=reference, **branch)
        shared = map_energies(q, pop, cfg.rho)
        per_trial = map_energies(np.broadcast_to(q, (40, 3, 4)), pop, cfg.rho)
        y2, ref2 = simulate_rounds(shared, pop, cfg, RandomSource(21), trials=40)
        y3, ref3 = simulate_rounds(per_trial, pop, cfg, RandomSource(21), trials=40)
        assert np.array_equal(y2, y3)
        assert (ref2 is None and ref3 is None) or np.array_equal(ref2, ref3)

    @pytest.mark.parametrize("branch", KERNEL_BRANCHES)
    def test_row_t_reaches_trial_t(self, branch, monkeypatch):
        # trial t puts all energy on class hot[t] and no noise is added, so
        # every other class slot receives exactly zero, across chunk borders
        monkeypatch.setattr(channel, "_CHUNK_ELEMS", 50)
        pop = DevicePopulation([0.5, 0.5], [1.0, 0.4])
        k, trials = 3, 30
        hot = np.random.default_rng(5).integers(0, k, trials)
        q = np.broadcast_to(np.eye(k)[hot][:, None, :], (trials, 2, k))
        cfg = RoundConfig(num_classes=k, reps=2, antennas=2, use_reference_re=True, **branch)
        frame = map_energies(q, pop, 1.0)
        y, y_ref = simulate_rounds(frame, pop, cfg, RandomSource(22), trials=trials)
        assert np.all(y[np.arange(trials), hot] > 0) and np.all(y_ref > 0)
        assert np.array_equal(y * (1 - np.eye(k)[hot]), np.zeros((trials, k)))

    @pytest.mark.parametrize("trials", [4, 6])
    def test_trial_count_must_match(self, trials):
        pop = make_uniform_population(2)
        frame = map_energies(np.full((5, 2, 2), 0.5), pop, 1.0)
        with pytest.raises(ShapeMismatch, match="5 trials"):
            simulate_rounds(frame, pop, RoundConfig(num_classes=2), RandomSource(0), trials)


class TestCorrelatedFading:
    def test_zero_coefficients_identical_draws(self):
        # zero coefficients are the independent kernel, draw for draw
        pop = make_uniform_population(2)
        frame = frame_from_energies([[1.0, 0.5], [0.7, 0.3]])
        cfg = RoundConfig(num_classes=2, reps=3, antennas=2, noise_var=0.2)
        zero = replace(cfg, time_corr=0.0, space_corr=0.0)
        a, _ = simulate_round(frame, pop, cfg, RandomSource(11))
        b, _ = simulate_round(frame, pop, zero, RandomSource(11))
        y, _ = simulate_rounds(frame, pop, zero, RandomSource(11), trials=1)
        assert np.array_equal(a, b) and np.array_equal(a, y[0])

    @pytest.mark.parametrize("model", list(ChannelModel))
    @pytest.mark.parametrize("corr", [dict(time_corr=0.9), dict(space_corr=0.9)])
    def test_config_coefficient_reaches_kernel(self, model, corr):
        pop = make_uniform_population(2)
        frame = frame_from_energies([[1.0, 0.5], [0.7, 0.3]])
        cfg = RoundConfig(num_classes=2, reps=3, antennas=2, noise_var=0.2,
                          channel_model=model)
        a, _ = simulate_round(frame, pop, cfg, RandomSource(11))
        b, _ = simulate_round(frame, pop, replace(cfg, **corr), RandomSource(11))
        assert not np.array_equal(a, b)

    def test_bad_coefficient(self):
        with pytest.raises(ValueError, match="time_corr"):
            RoundConfig(num_classes=2, time_corr=1.0)
        with pytest.raises(ValueError, match="space_corr"):
            RoundConfig(num_classes=2, space_corr=-0.1)

    def test_marginals_preserved(self):
        # correlated draws keep the same per-class mean energy
        pop = make_uniform_population(1)
        frame = frame_from_energies([[2.0, 1.0]])
        cfg = RoundConfig(num_classes=2, reps=8, antennas=1, noise_var=0.0)
        cfg = replace(cfg, time_corr=0.6)
        y, _ = simulate_rounds(frame, pop, cfg, RandomSource(12), trials=100_000)
        se = y.std(axis=0, ddof=1) / np.sqrt(y.shape[0])
        assert np.all(np.abs(y.mean(axis=0) - 8 * np.array([2.0, 1.0])) <= 3 * se)

    def test_bartlett_variance_inflation(self):
        # energy-domain AR(1) with phi = 0.5 across S = 16 reps inflates the
        # variance of the per-class mean by about 1 + 2*sum(phi^tau) = 3
        pop = make_uniform_population(1)
        frame = frame_from_energies([[1.0, 1.0]])
        cfg = RoundConfig(
            num_classes=2, reps=16, antennas=1, noise_var=0.0,
            channel_model=ChannelModel.DIAGONAL,
        )
        y0, _ = simulate_rounds(frame, pop, cfg, RandomSource(13), trials=100_000)
        y1, _ = simulate_rounds(
            frame, pop, replace(cfg, time_corr=0.5), RandomSource(14), trials=100_000
        )
        inflation = y1.var(axis=0, ddof=1) / y0.var(axis=0, ddof=1)
        # finite-S Bartlett factor is 2.75; the infinite-sum value is 3
        assert np.all(np.abs(inflation / 3.0 - 1.0) < 0.2)

    def test_space_correlation_symmetric(self):
        pop = make_uniform_population(1)
        frame = frame_from_energies([[1.0, 1.0]])
        cfg = RoundConfig(
            num_classes=2, reps=1, antennas=16, noise_var=0.0,
            channel_model=ChannelModel.DIAGONAL,
        )
        y0, _ = simulate_rounds(frame, pop, cfg, RandomSource(15), trials=100_000)
        y1, _ = simulate_rounds(
            frame, pop, replace(cfg, space_corr=0.5), RandomSource(16), trials=100_000
        )
        inflation = y1.var(axis=0, ddof=1) / y0.var(axis=0, ddof=1)
        assert np.all(np.abs(inflation / 3.0 - 1.0) < 0.2)

    def test_strong_correlation_approaches_no_averaging(self):
        # phi -> 1: the S = 16 average degrades toward a single sample
        pop = make_uniform_population(1)
        frame = frame_from_energies([[1.0, 1.0]])
        cfg16 = RoundConfig(
            num_classes=2, reps=16, antennas=1, noise_var=0.0,
            channel_model=ChannelModel.DIAGONAL,
        )
        cfg1 = RoundConfig(
            num_classes=2, reps=1, antennas=1, noise_var=0.0,
            channel_model=ChannelModel.DIAGONAL,
        )
        y_corr, _ = simulate_rounds(
            frame, pop, replace(cfg16, time_corr=0.99), RandomSource(17), trials=50_000
        )
        y_one, _ = simulate_rounds(frame, pop, cfg1, RandomSource(18), trials=50_000)
        # variance of the *mean* energy per slot
        var_corr = (y_corr / 16).var(axis=0, ddof=1)
        var_one = y_one.var(axis=0, ddof=1)
        assert np.all(var_corr > 0.55 * var_one)
        # and far above the independent-averaging level var_one / 16
        assert np.all(var_corr > 5 * var_one / 16)

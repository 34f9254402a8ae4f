import math
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
    energy_covariance,
    map_energies,
    sample_pathloss,
    scene_raw,
    scene_variance,
    simulate_round,
    simulate_rounds,
)
from scene_sim import channel
from scene_sim.power import EnergyFrame

from conftest import (
    diagonal_reference_rounds,
    extended_energies,
    frozen_round,
    make_uniform_population,
    random_lattice_indices,
    superposition_reference_rounds,
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
        with pytest.raises(ValueError, match="distance_range needs"):
            PathlossModel(3.5, (0.0, 10.0))
        with pytest.raises(ValueError, match="distance_range needs"):
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

    @pytest.mark.parametrize("noise_var", [1e-320, 1e77, 1e80])
    def test_extreme_noise_is_finite_and_unbiased(self, noise_var):
        # the noise energy is drawn in float64: a subnormal noise power and
        # one whose float32 samples overflowed both give finite energies with
        # E[Y_c] = S*M * (sum_i beta_i E_ic + noise_var), within 4 SE
        pop = make_uniform_population(2)
        frame = frame_from_energies([[1.0, 0.5], [0.7, 0.3]])
        cfg = RoundConfig(num_classes=2, reps=2, antennas=2, noise_var=noise_var)
        y, _ = simulate_rounds(frame, pop, cfg, RandomSource(7), trials=20_000)
        assert np.isfinite(y).all() and (y > 0).all()
        expected = 4 * (pop.betas_true @ frame.energies + noise_var)
        se = y.std(axis=0, ddof=1) / np.sqrt(len(y))
        assert np.all(np.abs(y.mean(axis=0) - expected) <= 4 * se)

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


class TestKernelMoments:
    """Both channel kernels and both slow references against the exact
    moments of :mod:`analysis`, through one check of a (trials, K[+1]) sample
    of slot energies: every slot mean against S*M * (sum_i beta_i E_ic +
    noise_var), every entry of :func:`analysis.energy_covariance` (reference
    slot and cross-class entries included) and, for kernel samples, Var(r_c)
    against :func:`analysis.scene_variance`. The kernels run on every case;
    each slow reference runs once per correlation structure.

    The superposition slots share each fading magnitude, so their exact
    cross-class covariances are positive; at seed 41 the sample Cov(Y_0, Y_1)
    sits about 40 SE above zero.

    4-SE bands, each SE taken from the sample alone (the SD of the centred
    products over sqrt(n)): false-failure probability at most 6.3e-5 per
    comparison under a normal approximation, about 0.026 over the 414
    comparisons (330 of the 20 kernel cases, 84 of the 6 reference runs)."""

    Z = 4.0
    POP = DevicePopulation(
        [0.4, 0.3, 0.2, 0.1], [1.6, 0.4, 1.0, 0.9], power_caps=np.full(4, 2.0)
    )
    Q = np.array([(0.7, 0.2, 0.1), (0.1, 0.8, 0.1), (0.3, 0.3, 0.4), (0.05, 0.05, 0.9)])
    # (time_corr, space_corr): none, time only, space only, both
    STRUCTURES = [(0.0, 0.0), (0.3, 0.0), (0.0, 0.2), (0.3, 0.2)]

    @staticmethod
    def diagonal(s, m, snr_db, time_corr, space_corr):
        return RoundConfig(
            num_classes=3, reps=s, antennas=m,
            noise_var=0.0 if snr_db is None else calibrate_noise(1.0, 3, snr_db),
            channel_model=ChannelModel.DIAGONAL, use_reference_re=True,
            time_corr=time_corr, space_corr=space_corr,
        )

    @staticmethod
    def superposition(time_corr, space_corr, reference=True):
        return RoundConfig(
            num_classes=3, reps=2, antennas=3, noise_var=calibrate_noise(1.0, 3, 0.0),
            use_reference_re=reference, time_corr=time_corr, space_corr=space_corr,
        )

    # M = 1 has no space axis and uncorrelated fading depends on S*M alone,
    # so every case here draws differently from every other
    @pytest.mark.parametrize("s, m, snr_db, time_corr, space_corr", [
        (1, 1, None, 0.0, 0.0), (4, 4, None, 0.0, 0.0), (1, 1, 5.0, 0.0, 0.0),
        *[(4, 4, 5.0, *corr) for corr in STRUCTURES], (4, 4, 5.0, 0.9, 0.0),
        (16, 1, 5.0, 0.3, 0.0), (16, 1, 5.0, 0.9, 0.0),
        (2, 8, 5.0, 0.3, 0.2), (8, 2, 5.0, 0.3, 0.2),
    ])
    def test_diagonal_kernel(self, s, m, snr_db, time_corr, space_corr):
        cfg = self.diagonal(s, m, snr_db, time_corr, space_corr)
        self.check_kernel(self.POP, cfg, RandomSource(31), 400_000)

    @pytest.mark.parametrize("reference", [False, True])
    @pytest.mark.parametrize("time_corr, space_corr", [(0.0, 0.0), (0.3, 0.2)])
    def test_superposition_kernel(self, time_corr, space_corr, reference):
        cfg = self.superposition(time_corr, space_corr, reference)
        self.check_kernel(self.POP, cfg, RandomSource(41), 400_000)

    @pytest.mark.parametrize("model", list(ChannelModel))
    @pytest.mark.parametrize("time_corr, space_corr", [(0.0, 0.0), (0.3, 0.2)])
    def test_mismatched_gains(self, time_corr, space_corr, model):
        pop = replace(self.POP, betas_assumed=[1.0, 0.5, 1.0, 1.2])
        cfg = replace(self.superposition(time_corr, space_corr), channel_model=model)
        self.check_kernel(pop, cfg, RandomSource(51), 200_000)

    @pytest.mark.parametrize("time_corr, space_corr", STRUCTURES)
    def test_diagonal_reference(self, time_corr, space_corr):
        cfg = self.diagonal(4, 4, 5.0, time_corr, space_corr)
        self.check_reference(diagonal_reference_rounds, cfg, RandomSource(32), 100_000)

    @pytest.mark.parametrize("time_corr, space_corr", [(0.0, 0.0), (0.3, 0.2)])
    def test_superposition_reference(self, time_corr, space_corr):
        cfg = self.superposition(time_corr, space_corr)
        self.check_reference(superposition_reference_rounds, cfg, RandomSource(42), 200_000)

    def check_reference(self, rounds, cfg, rng, trials):
        frame = map_energies(self.Q, self.POP, cfg.rho)
        self.assert_moments(rounds(frame, self.POP, cfg, rng, trials), frame, self.POP, cfg)

    def check_kernel(self, pop, cfg, rng, trials):
        frame = map_energies(self.Q, pop, cfg.rho)
        y, y_ref = simulate_rounds(frame, pop, cfg, rng, trials)
        sample = y if y_ref is None else np.column_stack([y, y_ref])
        raw = scene_raw(y, cfg.sample_count, cfg.rho)
        self.assert_moments(sample, frame, pop, cfg, raw)

    def assert_moments(self, sample, frame, pop, cfg, raw=None):
        """Check the slot means and the covariance entries of ``sample`` and,
        given the raw estimates ``raw`` of a kernel sample, their variances."""
        n, slots = sample.shape
        i, j = np.triu_indices(slots)
        centred = sample - sample.mean(axis=0)
        unbiased = n / (n - 1)  # a (co)variance divides the sum of products by n - 1
        columns = [sample, centred[:, i] * centred[:, j] * unbiased]
        exact = [
            cfg.sample_count * (pop.betas_true @ extended_energies(frame, cfg) + cfg.noise_var),
            energy_covariance(pop, self.Q, cfg)[i, j],
        ]
        names = [f"mean[{c}]" for c in range(slots)] + [f"cov[{a},{b}]" for a, b in zip(i, j)]
        if raw is not None:
            columns.append((raw - raw.mean(axis=0)) ** 2 * unbiased)
            exact.append(scene_variance(pop, self.Q, cfg))
            names += [f"var_r[{c}]" for c in range(raw.shape[1])]
        x = np.column_stack(columns)
        z = (x.mean(axis=0) - np.concatenate(exact)) / (x.std(axis=0, ddof=1) / np.sqrt(n))
        assert np.all(np.abs(z) <= self.Z), dict(zip(names, z.round(2)))


class TestSimulateRoundErrors:
    def test_shape_mismatch_devices(self, rng):
        pop = make_uniform_population(2)
        frame = frame_from_energies([[1.0, 1.0]])
        cfg = RoundConfig(num_classes=2)
        with pytest.raises(ValueError, match="frame has 1 devices, population 2"):
            simulate_round(frame, pop, cfg, rng)

    def test_shape_mismatch_classes(self, rng):
        pop = make_uniform_population(1)
        frame = frame_from_energies([[1.0, 1.0, 1.0]])
        cfg = RoundConfig(num_classes=2)
        with pytest.raises(ValueError, match="frame has 3 classes, config 2"):
            simulate_round(frame, pop, cfg, rng)

    @pytest.mark.parametrize("noise_var, energy", [(1.7e308, 1.0), (1e308, 1.0), (0.0, 1e78)])
    def test_float32_overflow_is_loud(self, rng, noise_var, energy):
        # an amplitude past the float32 range (1e78), or a noise power whose
        # energies pass the float64 range, used to give inf or nan energies:
        # round at -800 dB printed nan estimates and exited 0
        pop = make_uniform_population(2)
        frame = frame_from_energies([[energy, energy]] * 2)
        cfg = RoundConfig(num_classes=2, reps=2, noise_var=noise_var)
        with pytest.raises(ValueError, match="SNR is too low"):
            simulate_rounds(frame, pop, cfg, rng, trials=50)

    @pytest.mark.parametrize("energy", [1e-80, 1e-100])
    @pytest.mark.parametrize("reference", [False, True])
    def test_float32_underflow_is_loud(self, rng, energy, reference):
        # an amplitude below the float32 normal range (subnormal at 1e-80,
        # zero at 1e-100) erased the signal: a sweep at rho_value 1e-100 gave
        # every scene mean as 1/K and exited 0
        pop = make_uniform_population(2)
        frame = frame_from_energies([[energy, energy], [1.0, 1.0]])
        cfg = RoundConfig(num_classes=2, reps=2, noise_var=0.1, use_reference_re=reference)
        with pytest.raises(ValueError, match="underflow"):
            simulate_rounds(frame, pop, cfg, rng, trials=50)

    def test_tiny_class_entry_or_silent_device_is_no_underflow(self, rng):
        # the check is per device: a Dirichlet label may hold a tiny entry,
        # and a device with eta = 0 sends nothing by design
        pop = make_uniform_population(2)
        frame = frame_from_energies([[1.0, 1e-100], [0.0, 0.0]])
        cfg = RoundConfig(num_classes=2, reps=2, noise_var=0.1)
        y, _ = simulate_rounds(frame, pop, cfg, rng, trials=50)
        assert np.all(np.isfinite(y))


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


# The two branches of the kernel, superposition and diagonal Gamma sums;
# the diagonal one with a single group (uncorrelated) and with many groups
# (correlated), which chunks by groups under the 50-element override; the
# superposition one also correlated, which draws |g| from complex AR(1) fading.
# Under the overrides, a diagonal chunk, which is one work block, holds a few
# trials, and a superposition chunk one trial.
KERNEL_BRANCHES = [
    dict(channel_model=ChannelModel.SUPERPOSITION),
    dict(channel_model=ChannelModel.DIAGONAL),
    dict(channel_model=ChannelModel.DIAGONAL, time_corr=0.3, space_corr=0.2),
    dict(channel_model=ChannelModel.SUPERPOSITION, time_corr=0.3, space_corr=0.2),
]


class TestPerTrialFrames:
    """A (T, N, K) frame sends its row t in trial t of one kernel call."""

    @pytest.mark.parametrize("branch", KERNEL_BRANCHES)
    @pytest.mark.parametrize("reference", [False, True])
    @pytest.mark.parametrize("chunk_elems", [None, 50])
    def test_equal_rows_bit_identical(self, branch, reference, chunk_elems, monkeypatch):
        if chunk_elems is not None:  # many small chunks
            monkeypatch.setattr(channel, "_SUPER_CHUNK_ELEMS", chunk_elems)
            monkeypatch.setattr(channel, "_WORK_ELEMS", chunk_elems)
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
        monkeypatch.setattr(channel, "_SUPER_CHUNK_ELEMS", 50)
        monkeypatch.setattr(channel, "_WORK_ELEMS", 50)
        pop = DevicePopulation([0.5, 0.5], [1.0, 0.4])
        k, trials = 3, 30
        hot = np.random.default_rng(5).integers(0, k, trials)
        q = np.broadcast_to(np.eye(k)[hot][:, None, :], (trials, 2, k))
        cfg = RoundConfig(num_classes=k, reps=2, antennas=2, use_reference_re=True, **branch)
        frame = map_energies(q, pop, 1.0)
        y, y_ref = simulate_rounds(frame, pop, cfg, RandomSource(22), trials=trials)
        assert np.all(y[np.arange(trials), hot] > 0) and np.all(y_ref > 0)
        assert np.array_equal(y * (1 - np.eye(k)[hot]), np.zeros((trials, k)))

    @pytest.mark.parametrize("branch", KERNEL_BRANCHES)
    @pytest.mark.parametrize("reference", [False, True])
    @pytest.mark.parametrize("per_trial", [False, True])
    @pytest.mark.parametrize("work_elems", [7, 200])
    def test_work_block_changes_no_bit(self, branch, reference, per_trial, work_elems,
                                       monkeypatch):
        # 7 elements make one-trial blocks; 200 make superposition blocks of 2
        # trials, so the last of the 43 trials is ragged. A diagonal work block
        # is its chunk, which fixes the draws: there the blocked call gives the
        # bits of one call per chunk, each sending its rows of the frame.
        pop = DevicePopulation([0.2, 0.3, 0.5], [0.6, 1.0, 1.7])
        shape = (43, 3) if per_trial else 3
        q = np.random.default_rng(6).dirichlet(np.full(4, 0.5), size=shape)
        cfg = RoundConfig(num_classes=4, reps=2, antennas=3, rho=0.8, noise_var=0.4,
                          use_reference_re=reference, **branch)
        frame = map_energies(q, pop, cfg.rho)
        default = simulate_rounds(frame, pop, cfg, RandomSource(24), trials=43)
        monkeypatch.setattr(channel, "_WORK_ELEMS", work_elems)
        blocked = simulate_rounds(frame, pop, cfg, RandomSource(24), trials=43)
        if cfg.channel_model is ChannelModel.DIAGONAL:
            rng, chunk = RandomSource(24), channel.chunk_trials(pop, cfg)
            parts = [simulate_rounds(map_energies(q[lo : lo + chunk] if per_trial else q,
                                                  pop, cfg.rho),
                                     pop, cfg, rng, min(chunk, 43 - lo))
                     for lo in range(0, 43, chunk)]
            ys, refs = zip(*parts)
            default = np.concatenate(ys), np.concatenate(refs) if reference else None
        for a, b in zip(default, blocked):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("trials", [4, 6])
    def test_trial_count_must_match(self, trials):
        pop = make_uniform_population(2)
        frame = map_energies(np.full((5, 2, 2), 0.5), pop, 1.0)
        with pytest.raises(ValueError, match="5 trials"):
            simulate_rounds(frame, pop, RoundConfig(num_classes=2), RandomSource(0), trials)


class GammaSpy:
    """Generator stand-in recording the trial count of each (trials, slots)
    Gamma draw: the noise energies, drawn once per chunk in either branch."""

    def __init__(self, gen):
        self._gen, self.chunks = gen, []

    def standard_gamma(self, shape, size):
        if len(size) == 2:
            self.chunks.append(size[0])
        return self._gen.standard_gamma(shape, size)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class TestChunkSplit:
    """A call split at a multiple of ``channel.chunk_trials`` makes exactly
    the draws of one call, which is what lets a sweep job stream its trials."""

    @pytest.mark.parametrize("branch", KERNEL_BRANCHES)
    @pytest.mark.parametrize("reference", [False, True])
    # several-trial chunks; a trial larger than the budget (one-trial chunks)
    @pytest.mark.parametrize("budget", [300, 5])
    def test_split_at_chunk_is_one_call(self, branch, reference, budget, monkeypatch):
        monkeypatch.setattr(channel, "_SUPER_CHUNK_ELEMS", budget)
        monkeypatch.setattr(channel, "_WORK_ELEMS", budget)
        pop = DevicePopulation([0.2, 0.3, 0.5], [0.6, 1.0, 1.7])
        q = np.random.default_rng(7).dirichlet(np.full(4, 0.5), size=3)
        cfg = RoundConfig(num_classes=4, reps=2, antennas=3, rho=0.8, noise_var=0.4,
                          use_reference_re=reference, **branch)
        frame = map_energies(q, pop, cfg.rho)
        chunk = channel.chunk_trials(pop, cfg)
        assert chunk > 1 if budget == 300 else chunk == 1
        trials = 4 * chunk + chunk // 2 + 1  # a short last chunk
        rng = RandomSource(25)
        rng.generator = spy = GammaSpy(rng.generator)
        y, y_ref = simulate_rounds(frame, pop, cfg, rng, trials)
        assert spy.chunks == [chunk] * 4 + [trials - 4 * chunk]  # the chunks the kernel ran
        rng = RandomSource(25)
        parts = [simulate_rounds(frame, pop, cfg, rng, t)
                 for t in (chunk, 2 * chunk, trials - 3 * chunk)]
        assert np.concatenate([p[0] for p in parts]).tobytes() == y.tobytes()
        if reference:
            assert np.concatenate([p[1] for p in parts]).tobytes() == y_ref.tobytes()
        else:
            assert all(p[1] is None for p in parts) and y_ref is None


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


def effective_state(gen):
    """PCG64 state with the buffered half-word only when one is pending."""
    state = gen.bit_generator.state
    return state["state"], state["has_uint32"] and state["uinteger"]


class TestRawWordPhases:
    """The superposition phases are k * float32(2 pi) * 2^-16 for lattice
    indices k, four 16-bit pieces per raw PCG64 word, bit for bit and state
    for state the explicit numpy raw-word draw of
    ``conftest.random_lattice_indices``."""

    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("shape", [(1,), (3,), (4,), (5,), (7, 11, 13)])
    def test_equals_numpy_draw(self, pending, shape):
        fast, slow = np.random.default_rng(31), np.random.default_rng(31)
        advanced = np.random.default_rng(31)
        if pending:  # a single float32 draw leaves the high half-word buffered
            for g in (fast, slow, advanced):
                g.random(dtype=np.float32)
        assert fast.bit_generator.state["has_uint32"] == pending
        buffered = effective_state(fast)[1]
        a = channel._lattice_indices(fast, shape)
        b = random_lattice_indices(slow, shape)
        assert a.dtype == b.dtype == np.uint16 and a.shape == shape
        assert a.tobytes() == b.tobytes()
        # exactly ceil(size / 4) words (advance drops the buffered half-word,
        # which the indices leave as it was)
        advanced.bit_generator.advance(-(-a.size // 4))
        assert effective_state(fast) == (effective_state(advanced)[0], buffered)
        assert effective_state(fast) == effective_state(slow)
        for draw in (lambda g: g.random(5, dtype=np.float32),
                     lambda g: g.random(5),
                     lambda g: g.integers(0, 2**32, 5, dtype=np.uint32)):
            assert draw(fast).tobytes() == draw(slow).tobytes()
        # the kernel's float32 scaling of k is k * 2^-16 * float32(2 pi),
        # exact in float64, rounded to float32, and lies in [0, 2 pi)
        theta = np.multiply(a, channel._PHASE_STEP, dtype=np.float32)
        exact = b * 2.0**-16 * float(np.float32(2 * np.pi))
        assert theta.tobytes() == exact.astype(np.float32).tobytes()
        assert np.all((theta >= 0) & (theta < 2 * np.pi))

    @pytest.mark.parametrize(
        "setup",
        [
            dict(n=1, k=2, reps=2, antennas=2, trials=40),
            # 3 * 3 * 1 * 3 = 27 phases a trial: a chunk of 50 elements is one
            # trial, whose last word keeps one of its four pieces unused
            dict(n=3, k=3, reps=1, antennas=3, trials=7),
            dict(n=3, k=3, reps=1, antennas=3, trials=7, use_reference_re=True),
            dict(n=4, k=3, reps=3, antennas=2, trials=30, time_corr=0.4, space_corr=0.3),
            dict(n=4, k=3, reps=3, antennas=2, trials=30, per_trial=True),
        ],
    )
    @pytest.mark.parametrize("chunk_elems", [None, 50])
    def test_kernel_matches_numpy_draw(self, setup, chunk_elems, monkeypatch):
        setup = dict(setup)
        n, k, trials = setup.pop("n"), setup.pop("k"), setup.pop("trials")
        per_trial = setup.pop("per_trial", False)
        if chunk_elems is not None:  # chunk and work-block borders inside the call
            monkeypatch.setattr(channel, "_SUPER_CHUNK_ELEMS", chunk_elems)
            monkeypatch.setattr(channel, "_WORK_ELEMS", 7)
        pop = DevicePopulation(np.full(n, 1.0 / n), np.linspace(0.5, 1.5, n))
        size = (trials, n) if per_trial else n
        q = np.random.default_rng(n + k).dirichlet(np.full(k, 0.5), size=size)
        cfg = RoundConfig(num_classes=k, rho=0.8, noise_var=0.3, **setup)
        frame = map_energies(q, pop, cfg.rho)
        fast = simulate_rounds(frame, pop, cfg, RandomSource(23), trials)
        drawn = []

        def reference_draw(gen, shape):
            drawn.append(math.prod(shape))
            return random_lattice_indices(gen, shape)

        monkeypatch.setattr(channel, "_lattice_indices", reference_draw)
        slow = simulate_rounds(frame, pop, cfg, RandomSource(23), trials)
        kt = k + cfg.use_reference_re
        assert sum(drawn) == trials * n * kt * cfg.reps * cfg.antennas  # every phase
        for a, b in zip(fast, slow):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()

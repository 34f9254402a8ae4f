from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scene_sim import (
    ChannelModel,
    CrossoverModel,
    DevicePopulation,
    RandomSource,
    RoundConfig,
    SoftLabel,
    calibrate_noise,
    energy_covariance,
    map_energies,
    mismatch_bias,
    mismatch_bias_bound,
    scene_raw,
    scene_variance,
    simulate_rounds,
    variance_bound,
    weighted_average,
)

from conftest import make_uniform_population


def random_mismatch_setup(gen, n, k, gamma_lo, gamma_hi):
    omegas = gen.dirichlet(np.ones(n))
    gammas = gen.uniform(gamma_lo, gamma_hi, n)
    betas = gen.uniform(0.5, 2.0, n)
    pop = DevicePopulation(omegas, betas, betas / gammas)
    labels = [SoftLabel(gen.dirichlet(np.full(k, 0.3))) for _ in range(n)]
    return pop, labels


class TestMismatchBias:
    def test_calibrated_devices_unbiased(self):
        pop = make_uniform_population(3)
        labels = [SoftLabel((0.5, 0.3, 0.2))] * 3
        assert np.allclose(mismatch_bias(pop, labels), 0.0)

    def test_single_device_vertex(self):
        # gamma = 1.2, q = (1, 0): bias = 0.2 * (1 - 1/2, 0 - 1/2)
        pop = DevicePopulation([1.0], [1.2], [1.0])
        labels = [SoftLabel((1.0, 0.0))]
        assert np.allclose(mismatch_bias(pop, labels), [0.1, -0.1])

    def test_uniform_label_contributes_nothing(self):
        pop = DevicePopulation([0.5, 0.5], [3.0, 1.0], [1.0, 1.0])
        labels = [
            SoftLabel((0.25, 0.25, 0.25, 0.25)),
            SoftLabel((0.25, 0.25, 0.25, 0.25)),
        ]
        assert np.allclose(mismatch_bias(pop, labels), 0.0)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_bias_sums_to_zero(self, seed):
        gen = np.random.default_rng(seed)
        pop, labels = random_mismatch_setup(gen, 4, 6, 0.5, 1.5)
        assert mismatch_bias(pop, labels).sum() == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("model", list(ChannelModel))
    def test_monte_carlo_cross_check(self, model):
        # the closed form only involves first moments, so it must match the
        # empirical mean shift of the self-centering estimate in both models
        gen = np.random.default_rng(11)
        pop, labels = random_mismatch_setup(gen, 4, 5, 0.7, 1.3)
        qbar = weighted_average(labels, pop).probs
        rho = 1.0
        cfg = RoundConfig(
            num_classes=5, reps=4, antennas=2, rho=rho,
            noise_var=calibrate_noise(rho, 5, 10.0), channel_model=model,
        )
        frame = map_energies(labels, pop, rho)
        y, _ = simulate_rounds(frame, pop, cfg, RandomSource(12), trials=60_000)
        raw = scene_raw(y, cfg.sample_count, rho)
        se = raw.std(axis=0, ddof=1) / np.sqrt(raw.shape[0])
        predicted = mismatch_bias(pop, labels)
        assert np.all(np.abs(raw.mean(axis=0) - qbar - predicted) <= 3 * se)


class TestMismatchBiasBound:
    def test_zero_delta(self):
        assert mismatch_bias_bound(0.0, 5) == 0.0

    def test_k2_value_and_attainment(self):
        bound = mismatch_bias_bound(0.2, 2)
        assert bound == pytest.approx(0.2 * np.sqrt(0.5))
        assert bound == pytest.approx(0.14142, abs=1e-5)
        pop = DevicePopulation([1.0], [1.2], [1.0])
        bias = mismatch_bias(pop, [SoftLabel((1.0, 0.0))])
        assert np.linalg.norm(bias) == pytest.approx(bound, abs=1e-12)

    def test_k10_value(self):
        assert mismatch_bias_bound(0.2, 10) == pytest.approx(0.18974, abs=1e-5)

    def test_negative_delta(self):
        # nan and inf used to come back as the bound
        for delta in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="delta must be >= 0 and finite"):
                mismatch_bias_bound(delta, 2)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_never_violated(self, seed):
        gen = np.random.default_rng(seed)
        delta = float(gen.uniform(0.0, 0.5))
        n, k = int(gen.integers(1, 8)), int(gen.integers(2, 12))
        pop, labels = random_mismatch_setup(gen, n, k, 1 - delta, 1 + delta)
        bias = mismatch_bias(pop, labels)
        assert np.linalg.norm(bias) <= mismatch_bias_bound(delta, k) + 1e-12


class TestVarianceBound:
    def test_labels_as_array(self):
        # a list of SoftLabels and its (N, K) array give the same bits
        pop = DevicePopulation([0.3, 0.7], [1.0, 2.0], [1.0, 1.5])
        labels = [SoftLabel((0.7, 0.2, 0.1)), SoftLabel((0.1, 0.1, 0.8))]
        cfg = RoundConfig(num_classes=3, reps=2, antennas=2, time_corr=0.5, noise_var=0.1)
        for fn in (mismatch_bias, lambda p, q: variance_bound(p, q, cfg),
                   lambda p, q: scene_variance(p, q, cfg),
                   lambda p, q: map_energies(q, p, 0.5).energies):
            assert fn(pop, labels).tobytes() == fn(pop, np.asarray(labels)).tobytes()

    def test_single_device_value(self):
        # N=1, omega=1, q_c=0.7, sigma=0, S=M=1, rho=1 -> 2 * 0.49
        pop = DevicePopulation([1.0], [1.0])
        labels = [SoftLabel((0.7, 0.3))]
        cfg = RoundConfig(num_classes=2, reps=1, antennas=1, rho=1.0, noise_var=0.0)
        bound = variance_bound(pop, labels, cfg)
        assert bound[0] == pytest.approx(0.98)
        assert bound[1] == pytest.approx(2 * 0.09)

    @pytest.mark.parametrize("noise_var, rho", [(1e179, 1e150), (1e89, 1e-70), (1.5e154, 1.0)])
    def test_overflowing_noise_term_names_noise_var(self, noise_var, rho):
        # noise_var^2 / rho^2 past the float range: noise_var**2 raised a bare
        # OverflowError, "(34, 'Numerical result out of range')", which ended
        # a sweep at rho 1e150 and -300 dB, or the quotient gave an inf bound;
        # the exact diagonal variance shares the noise term and its check
        cfg = RoundConfig(num_classes=2, rho=rho, noise_var=noise_var)
        for closed_form in (variance_bound, scene_variance):
            with pytest.raises(ValueError, match="noise_var"):
                closed_form(make_uniform_population(1), [SoftLabel((0.5, 0.5))], cfg)

    def test_noise_term_below_the_limit_is_finite(self):
        cfg = RoundConfig(num_classes=2, noise_var=9e153)
        assert np.isfinite(variance_bound(make_uniform_population(1), [[0.5, 0.5]], cfg)).all()

    def test_vanishes_as_sm_grows(self):
        pop = DevicePopulation([1.0], [1.0])
        labels = [SoftLabel((0.7, 0.3))]
        prev = np.inf
        for s in (1, 4, 16, 256, 4096):
            cfg = RoundConfig(num_classes=2, reps=s, antennas=1, rho=1.0, noise_var=0.1)
            bound = variance_bound(pop, labels, cfg).max()
            assert bound < prev
            prev = bound
        assert prev < 1e-3

    def test_shrinks_with_population_size(self):
        # equal weights 1/N and a shared label: the signal term scales as 1/N
        labels_k = (0.25, 0.25, 0.25, 0.25)
        values = []
        for n in (1, 2, 4, 8):
            pop = make_uniform_population(n)
            labels = [SoftLabel(labels_k)] * n
            cfg = RoundConfig(num_classes=4, reps=1, antennas=1, rho=1.0, noise_var=0.0)
            values.append(variance_bound(pop, labels, cfg)[0])
        ratios = np.array(values[:-1]) / np.array(values[1:])
        assert np.allclose(ratios, 2.0)

    def test_exact_diagonal_variance_against_monte_carlo(self):
        gen = np.random.default_rng(3)
        pop, labels = random_mismatch_setup(gen, 3, 4, 1.0, 1.0)
        rho = 1.0
        cfg = RoundConfig(
            num_classes=4, reps=2, antennas=2, rho=rho,
            noise_var=calibrate_noise(rho, 4, 5.0),
            channel_model=ChannelModel.DIAGONAL,
        )
        frame = map_energies(labels, pop, rho)
        y, _ = simulate_rounds(frame, pop, cfg, RandomSource(21), trials=200_000)
        raw = scene_raw(y, cfg.sample_count, rho)
        predicted = scene_variance(pop, labels, cfg)
        emp = raw.var(axis=0, ddof=1)
        assert np.all(np.abs(emp / predicted - 1.0) < 0.05)
        # and the bound indeed dominates the exact value here
        assert np.all(predicted <= variance_bound(pop, labels, cfg))

    def test_diagonal_variance_correlation_factor(self):
        # the signal term scales by f = sum(lam^2) / (S*M) over the eigenvalues
        # of C = KMS_S(sqrt(time_corr)) (x) KMS_M(sqrt(space_corr)); f is
        # exactly 1 without correlation, and the noise term never changes
        pop = DevicePopulation([0.6, 0.4], [1.5, 0.5], [1.0, 0.5])
        labels = [SoftLabel((0.7, 0.2, 0.1)), SoftLabel((0.1, 0.3, 0.6))]
        cfg = RoundConfig(num_classes=3, reps=4, antennas=2, rho=1.3, noise_var=0.2,
                          channel_model=ChannelModel.DIAGONAL)
        signal = cfg.rho**2 * ((pop.omegas * pop.gammas) ** 2) @ (
            np.stack([q.probs for q in labels]) ** 2
        )

        def closed_form(f):
            per_sample = f * signal + cfg.noise_var**2
            centered = (1.0 - 2.0 / 3) * per_sample + per_sample.sum() / 9
            return centered / (cfg.sample_count * cfg.rho**2)

        assert scene_variance(pop, labels, cfg) == pytest.approx(closed_form(1.0), rel=1e-14)

        def kms(n, corr):
            lag = np.arange(n)
            return np.sqrt(corr) ** np.abs(lag[:, None] - lag)

        for tc, sc in ((0.3, 0.0), (0.0, 0.2), (0.5, 0.7)):
            lam = np.linalg.eigvalsh(np.kron(kms(4, tc), kms(2, sc)))
            corr = replace(cfg, time_corr=tc, space_corr=sc)
            assert scene_variance(pop, labels, corr) == pytest.approx(
                closed_form((lam**2).sum() / 8), rel=1e-12
            )

    @pytest.mark.parametrize("n, k", [(1, 3), (2, 2)])
    def test_energy_covariance_checks_label_shape(self, n, k):
        # unchecked, a one-device population would broadcast over every label row
        pop = make_uniform_population(n)
        with pytest.raises(ValueError, match=rf"labels of shape \(2, 3\) for {n} devices"):
            energy_covariance(pop, [[0.5, 0.3, 0.2]] * 2, RoundConfig(num_classes=k))


class TestCalibrateNoise:
    def test_ten_db(self):
        assert calibrate_noise(1.0, 10, 10.0) == pytest.approx(0.01)

    def test_zero_db(self):
        assert calibrate_noise(1.0, 10, 0.0) == pytest.approx(0.1)

    def test_linear_in_rho(self):
        assert calibrate_noise(2.0, 10, 7.0) == pytest.approx(
            2 * calibrate_noise(1.0, 10, 7.0)
        )

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0, -3200.0, float("nan")])
    def test_out_of_range_snr_names_snr_db(self, snr_db):
        # 4000 raised OverflowError, -4000 ZeroDivisionError, -3200 gave inf
        # and nan gave a nan noise power
        with pytest.raises(ValueError, match="snr_db"):
            calibrate_noise(1.0, 10, snr_db)


class TestCrossover:
    def test_equal_constants_threshold_zero(self):
        model = CrossoverModel(budget=100, c_coh=1.0, c_nc=1.0, num_classes=10)
        assert model.p_threshold == 0.0
        assert model.scene_wins(1)
        assert model.scene_wins(0)

    def test_boundary_example(self):
        model = CrossoverModel(budget=100, c_coh=1.0, c_nc=2.0, num_classes=10)
        assert model.p_threshold == pytest.approx(50.0)
        assert model.scene_wins(50)
        assert not model.scene_wins(49)

    def test_coherent_dominates_clamped(self):
        model = CrossoverModel(budget=100, c_coh=3.0, c_nc=1.0, num_classes=10)
        assert model.p_threshold == 0.0
        assert model.scene_wins(10)

    def test_exposed_quantities(self):
        # S_coh = (B - P) / K = 8 and S_nc = B / K = 10
        model = CrossoverModel(budget=100, c_coh=1.0, c_nc=2.0, num_classes=10)
        assert model.mse(20) == pytest.approx((1.0 / 8.0, 2.0 / 10.0))
        assert model.mse(0) == pytest.approx((1.0 / 10.0, 2.0 / 10.0))

    def test_csv_row(self):
        model = CrossoverModel(budget=100, c_coh=1.0, c_nc=2.0, num_classes=10)
        assert model.csv_row(20) == "100,20,1,2,0.125,0.20000000000000001,0"
        assert model.csv_row(50).endswith(",1")

    @pytest.mark.parametrize("c_coh, c_nc", [
        (1.0, float("nan")), (float("nan"), 1.0), (1.0, float("inf")), (float("inf"), 1.0),
    ])
    def test_non_finite_constants_rejected(self, c_coh, c_nc):
        # nan <= 0 is False, so a nan fit used to pass and fill the grid with nan
        with pytest.raises(ValueError, match="finite"):
            CrossoverModel(budget=100, c_coh=c_coh, c_nc=c_nc, num_classes=10)

    @pytest.mark.parametrize("c_coh, c_nc", [(1e308, 1.0), (1.0, 1e308)])
    def test_overflowing_mse_rejected(self, c_coh, c_nc):
        # c * K / (B - P) overflows at P = B - 1 and would write inf rows
        with pytest.raises(ValueError, match="overflow"):
            CrossoverModel(budget=1, c_coh=c_coh, c_nc=c_nc, num_classes=10)

    def test_bad_budget(self):
        with pytest.raises(ValueError, match="budget must be an integer >= 1, got 0"):
            CrossoverModel(budget=0, c_coh=1.0, c_nc=1.0, num_classes=10)
        model = CrossoverModel(budget=100, c_coh=1.0, c_nc=1.0, num_classes=10)
        for method in (model.mse, model.scene_wins, model.csv_row):
            for p, message in ((100, "need 0 <= P < B"),
                               (-1, "pilot_cost must be an integer >= 0, got -1")):
                with pytest.raises(ValueError, match=message):
                    method(p)

    @given(
        b=st.integers(min_value=10, max_value=500),
        c_coh=st.floats(min_value=0.1, max_value=5.0),
        c_nc=st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=100)
    def test_threshold_consistent_with_mse_comparison(self, b, c_coh, c_nc):
        model = CrossoverModel(budget=b, c_coh=c_coh, c_nc=c_nc, num_classes=10)
        for p in range(0, b, max(1, b // 17)):
            wins_by_mse = c_nc / b <= c_coh / (b - p)
            wins_by_threshold = p >= model.p_threshold
            # the two characterizations may only disagree within float
            # rounding of the threshold itself
            if abs(p - model.p_threshold) > 1e-9 * b:
                assert wins_by_mse == wins_by_threshold
            assert model.scene_wins(p) == wins_by_mse

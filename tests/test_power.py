import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scene_sim import (
    DevicePopulation,
    EnergyFrame,
    RhoRule,
    RoundConfig,
    SoftLabel,
    calibrate_noise,
    map_energies,
    min_rho,
    run_min_rho_protocol,
)
from scene_sim.power import resolve_round


def feasible(pop, rho):
    """Independent oracle: every device's per-repetition total fits its cap."""
    eta = rho * pop.omegas / pop.betas_assumed
    return bool(np.all(eta <= pop.power_caps * (1 + 1e-12)))


def random_population(gen, n):
    omegas = gen.uniform(0.05, 1.0, n)
    omegas /= omegas.sum()
    betas = gen.uniform(0.05, 3.0, n)
    assumed = betas * gen.uniform(0.7, 1.3, n)
    caps = gen.uniform(0.5, 1.5, n)
    return DevicePopulation(omegas, betas, assumed, caps)


class TestMapEnergies:
    def test_direct_evaluation(self):
        # eta = rho*omega/beta_assumed = 2*1/0.25 = 8; E = eta * q
        pop = DevicePopulation([1.0], [0.25], [0.25], [10.0])
        frame = map_energies([SoftLabel((0.75, 0.25))], pop, rho=2.0)
        assert np.allclose(frame.eta, [8.0])
        assert np.allclose(frame.energies, [[6.0, 2.0]])
        assert frame.energies.sum() == pytest.approx(8.0)

    def test_vertex_label_concentrates_energy(self):
        pop = DevicePopulation([1.0], [1.0])
        frame = map_energies([SoftLabel((1.0, 0.0, 0.0))], pop, rho=3.0)
        assert np.allclose(frame.energies, [[3.0, 0.0, 0.0]])

    def test_uniform_label_splits_evenly(self):
        pop = DevicePopulation([1.0], [1.0])
        k = 5
        frame = map_energies([SoftLabel([1.0 / k] * k)], pop, rho=2.0)
        assert np.allclose(frame.energies, 2.0 / k)

    def test_nonpositive_rho(self):
        pop = DevicePopulation([1.0], [1.0])
        with pytest.raises(ValueError, match="rho must be positive"):
            map_energies([SoftLabel((0.5, 0.5))], pop, rho=0.0)

    def test_uses_assumed_beta_not_true(self):
        pop = DevicePopulation([1.0], [4.0], [2.0], [10.0])
        frame = map_energies([SoftLabel((0.5, 0.5))], pop, rho=1.0)
        assert np.allclose(frame.eta, [0.5])  # rho / beta_assumed

    @given(
        rho=st.floats(min_value=0.01, max_value=100.0),
        scale=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=30)
    def test_scaling_covariance(self, rho, scale):
        pop = DevicePopulation([0.3, 0.7], [1.0, 2.0])
        labels = [SoftLabel((0.2, 0.8)), SoftLabel((0.9, 0.1))]
        base = map_energies(labels, pop, rho)
        scaled = map_energies(labels, pop, scale * rho)
        assert np.allclose(scaled.energies, scale * base.energies, rtol=1e-12)

    def test_constant_round_energy_across_labels(self):
        # the per-device total depends on (rho, omega, beta_assumed) only
        pop = random_population(np.random.default_rng(0), 4)
        rows = []
        for seed in range(3):
            gen = np.random.default_rng(seed)
            labels = [
                SoftLabel(gen.dirichlet(np.full(6, 0.4))) for _ in range(4)
            ]
            rows.append(map_energies(labels, pop, rho=1.5).energies.sum(axis=1))
        assert np.allclose(rows[0], rows[1])
        assert np.allclose(rows[1], rows[2])


class TestBatchedMapEnergies:
    """(T, N, K) label arrays map to (T, N, K) frames with the eta of
    the single-round path, and pass the checks a SoftLabel applies."""

    def setup_method(self):
        self.pop = random_population(np.random.default_rng(5), 3)
        self.q = np.random.default_rng(6).dirichlet(np.full(4, 0.5), size=(7, 3))

    def test_rows_equal_the_single_round_frames(self):
        frame = map_energies(self.q, self.pop, rho=1.3)
        assert frame.energies.shape == (7, 3, 4)
        assert frame.num_devices == 3 and frame.num_classes == 4
        for t in range(7):
            labels = [SoftLabel(row) for row in self.q[t]]
            single = map_energies(labels, self.pop, rho=1.3)
            assert np.array_equal(frame.energies[t], single.energies)
            assert np.array_equal(frame.eta, single.eta)

    def test_two_dimensional_array_equals_label_list(self):
        labels = [SoftLabel(row) for row in self.q[0]]
        assert np.array_equal(
            map_energies(self.q[0], self.pop, 2.0).energies,
            map_energies(labels, self.pop, 2.0).energies,
        )

    @pytest.mark.parametrize(
        "bad, message", [(np.nan, "finite"), (np.inf, "finite"), (-0.2, "negative"), (0.9, "sum")]
    )
    def test_rejects_bad_label_anywhere(self, bad, message):
        q = self.q.copy()
        q[4, 2, 1] = bad
        with pytest.raises(ValueError, match=message):
            map_energies(q, self.pop, rho=1.0)

    @pytest.mark.parametrize("shape", [(4,), (2, 4), (7, 2, 4), (1, 7, 3, 4)])
    def test_rejects_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="labels of shape"):
            map_energies(np.full(shape, 0.25), self.pop, rho=1.0)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="K >= 2"):
            map_energies(np.ones((7, 3, 1)), self.pop, rho=1.0)


class TestEnergyFrame:
    def test_rejects_negative_energy(self):
        with pytest.raises(ValueError, match="negative transmit energy"):
            EnergyFrame(np.array([[-0.1, 1.1]]), np.array([1.0]))

    def test_rejects_eta_of_wrong_length(self):
        with pytest.raises(ValueError, match="one entry per device"):
            EnergyFrame(np.array([[0.5, 0.5]]), np.array([1.0, 1.0]))

    def test_rejects_negative_eta(self):
        with pytest.raises(ValueError, match="eta entries must be >= 0"):
            EnergyFrame(np.zeros((1, 2)), np.array([-1.0]))

    def test_rejects_row_sum_mismatch(self):
        with pytest.raises(ValueError):
            EnergyFrame(np.array([[0.5, 0.2]]), np.array([1.0]))

    @pytest.mark.parametrize(
        "e, eta", [([[np.nan, 1.0]], [1.0]), ([[np.inf, 1.0]], [np.inf]), ([[0.5, 0.5]], [np.nan])]
    )
    def test_rejects_non_finite(self, e, eta):
        # abs(nan - eta) > tol is False: the row-sum check alone lets NaN pass
        with pytest.raises(ValueError, match="must be finite"):
            EnergyFrame(np.array(e), np.array(eta))

    def test_per_trial_frame(self):
        e = np.array([[[0.5, 0.5]], [[1.0, 0.0]], [[0.2, 0.8]]])
        frame = EnergyFrame(e, np.array([1.0]))
        assert (frame.num_devices, frame.num_classes) == (1, 2)
        with pytest.raises(ValueError, match="sum to"):
            EnergyFrame(e * [[[1.0]], [[1.0]], [[0.5]]], np.array([1.0]))
        with pytest.raises(ValueError, match="N x K or T x N x K"):
            EnergyFrame(e[None], np.array([1.0]))


class TestMinRho:
    def test_two_device_example(self):
        # local scales: 1*1/0.5 = 2 and 0.5*1/0.5 = 1 -> min 1
        pop = DevicePopulation([0.5, 0.5], [1.0, 0.5], [1.0, 0.5], [1.0, 1.0])
        assert min_rho(pop) == pytest.approx(1.0)

    def test_single_device(self):
        pop = DevicePopulation([1.0], [1.0], [1.0], [1.0])
        assert min_rho(pop) == pytest.approx(1.0)

    def test_identical_devices_independent_of_n(self):
        for n in (1, 3, 7):
            pop = DevicePopulation(
                np.full(n, 1.0 / n), np.full(n, 2.0), np.full(n, 2.0), np.full(n, 0.5)
            )
            assert min_rho(pop) == pytest.approx(2.0 * 0.5 * n)

    def test_grid_scan_feasibility_boundary(self):
        # oracle: scan a rho grid; the feasible set must be exactly (0, rho*]
        gen = np.random.default_rng(42)
        for _ in range(20):
            pop = random_population(gen, int(gen.integers(1, 8)))
            rho_star = min_rho(pop)
            for frac in np.linspace(0.05, 1.0, 12):
                assert feasible(pop, frac * rho_star)
            for frac in (1.01, 1.5, 3.0):
                assert not feasible(pop, frac * rho_star)

    def test_zero_weight_devices_excluded(self):
        # the zero-weight device would give an infinite local scale
        pop = DevicePopulation([1.0, 0.0], [1.0, 1e-9], [1.0, 1e-9], [1.0, 1.0])
        assert min_rho(pop) == pytest.approx(1.0)


class TestMinRhoProtocol:
    def test_matches_formula(self):
        gen = np.random.default_rng(7)
        for _ in range(10):
            pop = random_population(gen, 5)
            rho_min, transcript = run_min_rho_protocol(pop)
            assert rho_min == pytest.approx(min_rho(pop))
            assert len(transcript) == 5

    def test_minimum_of_reports(self):
        # devices engineered to report exactly (4, 2, 9)
        pop = DevicePopulation(
            [0.25, 0.25, 0.5], [1.0, 0.5, 4.5], [1.0, 0.5, 4.5], [1.0, 1.0, 1.0]
        )
        rho_min, transcript = run_min_rho_protocol(pop)
        assert np.array_equal(np.round(transcript), [4, 2, 9])
        assert rho_min == pytest.approx(2.0)

    def test_broadcast_scale_is_feasible_for_all(self):
        # post-hoc cap audit over many random populations
        gen = np.random.default_rng(123)
        for _ in range(200):
            pop = random_population(gen, int(gen.integers(2, 10)))
            rho_min, _ = run_min_rho_protocol(pop)
            labels = [
                SoftLabel(gen.dirichlet(np.full(4, 0.5)))
                for _ in range(pop.num_devices)
            ]
            frame = map_energies(labels, pop, rho_min)
            assert np.all(frame.eta <= pop.power_caps * (1 + 1e-9))


class TestResolveRound:
    def test_null_snr_is_noise_free(self):
        # a null snr_db used to keep the base config's noise power
        pop = random_population(np.random.default_rng(5), 4)
        base = RoundConfig(num_classes=3, rho=0.5, noise_var=7.0)
        cfg = resolve_round(base, RhoRule.FIXED, pop, None, False)
        assert (cfg.rho, cfg.noise_var, cfg.use_reference_re) == (0.5, 0.0, False)
        cfg = resolve_round(base, RhoRule.MIN_RHO, pop, 3.0, True)
        assert cfg.rho == min_rho(pop) and cfg.use_reference_re
        assert cfg.noise_var == calibrate_noise(min_rho(pop), 3, 3.0)

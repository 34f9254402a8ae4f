import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scene_sim import (
    ChannelModel,
    DevicePopulation,
    RandomSource,
    RoundConfig,
    map_energies,
    project_simplex,
    ratio_estimate,
    scene_estimate,
    scene_raw,
    simulate_rounds,
    top_t_truncate,
    validate_soft_label,
)
from scene_sim.channel import ReceivedEnergies
from scene_sim.estimators import (
    AllNonpositive,
    BadT,
    ZeroReference,
    ZeroRho,
    clip_renormalize,
    ratio_project,
    reference_ratios,
)

from conftest import frozen_received, make_uniform_population


def received(y, y_ref=None, sample_count=1):
    return ReceivedEnergies(np.asarray(y, dtype=float), y_ref, sample_count)


energy_vectors = hnp.arrays(
    np.float64,
    st.integers(min_value=2, max_value=12),
    elements=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


class TestSceneEstimate:
    def test_hand_evaluated_example(self):
        # K=2, S=M=1, rho=1, Y=(3,1): Ybar=2, raw = (1.5, -0.5)
        cfg = RoundConfig(num_classes=2, reps=1, antennas=1, rho=1.0)
        res = scene_estimate(received([3.0, 1.0]), cfg)
        assert np.allclose(res.raw, [1.5, -0.5])
        assert np.allclose(res.projected.probs, [1.0, 0.0])
        assert res.centering_gain == pytest.approx(1.0)
        assert not res.used_ratio

    def test_equal_energies_give_uniform(self):
        cfg = RoundConfig(num_classes=4, reps=2, antennas=3, rho=0.7)
        res = scene_estimate(received([5.0] * 4, sample_count=6), cfg)
        assert np.allclose(res.raw, 0.25)

    def test_noise_free_fixed_gain_recovery(self):
        pop = make_uniform_population(1)
        labels = [validate_soft_label((0.7, 0.3))]
        cfg = RoundConfig(num_classes=2, reps=3, antennas=2, rho=2.0, noise_var=0.0)
        frame = map_energies(labels, pop, cfg.rho)
        y = frozen_received(frame, pop, cfg)
        res = scene_estimate(y, cfg)
        assert np.allclose(res.raw, [0.7, 0.3], atol=1e-12)

    def test_sample_count_mismatch(self):
        cfg = RoundConfig(num_classes=2, reps=2, antennas=2)
        with pytest.raises(ValueError):
            scene_estimate(received([1.0, 1.0], sample_count=3), cfg)

    def test_zero_rho(self):
        with pytest.raises(ZeroRho):
            scene_raw(np.array([1.0, 2.0]), 1, 0.0)

    @given(y=energy_vectors, rho=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=100)
    def test_self_centering_sum_identity(self, y, rho):
        raw = scene_raw(y, sample_count=4, rho=rho)
        # algebraic identity; the achievable precision is set by the scaled
        # energies before the centering cancellation, so size the tolerance
        # by max |Y| / (S*M*rho)
        scale = max(1.0, float(np.abs(y).max()) / (4 * rho))
        assert raw.sum() == pytest.approx(1.0, abs=1e-9 * scale)

    def test_batch_matches_single(self):
        gen = np.random.default_rng(0)
        y = gen.uniform(0, 5, (10, 6))
        batch = scene_raw(y, 8, 1.3)
        for row_in, row_out in zip(y, batch):
            assert np.allclose(scene_raw(row_in, 8, 1.3), row_out)


class TestCenteringIdentity:
    @given(
        v=hnp.arrays(
            np.float64,
            st.integers(min_value=2, max_value=16),
            elements=st.floats(min_value=1e-6, max_value=1e6),
        )
    )
    @settings(max_examples=100)
    def test_variance_of_centered_energy(self, v):
        # independent per-class energies with variances v_j:
        # Var(Y_c - Ybar) = (1 - 2/K) v_c + (1/K^2) sum_j v_j, exactly
        k = v.size
        for c in range(k):
            a = -np.ones(k) / k
            a[c] += 1.0
            direct = float(a**2 @ v)
            identity = (1 - 2 / k) * v[c] + v.sum() / k**2
            assert direct == pytest.approx(identity, rel=1e-12)


class TestProjectSimplex:
    def test_single_positive_entry(self):
        assert np.allclose(project_simplex(np.array([1.5, -0.5])).probs, [1.0, 0.0])

    def test_idempotent_on_simplex(self):
        v = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_simplex(v).probs, v)

    def test_uniform_fallback(self):
        out = project_simplex(np.array([-1.0, -2.0, -3.0]))
        assert np.allclose(out.probs, 1 / 3)

    @given(
        v=hnp.arrays(
            np.float64,
            st.integers(min_value=2, max_value=10),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
        )
    )
    @settings(max_examples=100)
    def test_output_is_valid_label(self, v):
        out = project_simplex(v)
        validate_soft_label(out.probs)
        # idempotence
        assert np.allclose(project_simplex(out.probs).probs, out.probs, atol=1e-12)


class TestBatchedForms:
    """The forms vectorized over trials agree row by row with the
    single-round estimators and raise the same errors."""

    def test_clip_renormalize_rows_match_project_simplex(self):
        v = np.random.default_rng(3).normal(size=(50, 5))
        v[7] = -1.0  # nothing positive: uniform fallback
        for row_in, row_out in zip(v, clip_renormalize(v)):
            assert np.array_equal(project_simplex(row_in).probs, row_out)

    def test_ratio_rows_match_ratio_estimate(self):
        gen = np.random.default_rng(4)
        y, y_ref = gen.uniform(0, 5, (20, 4)), gen.uniform(1, 5, 20)
        ratios = reference_ratios(y, y_ref)
        for i, (raw, proj) in enumerate(zip(ratios, ratio_project(ratios))):
            single = ratio_estimate(received(y[i], y_ref=float(y_ref[i])))
            assert np.array_equal(single.raw, raw)
            assert np.array_equal(single.projected.probs, proj)

    def test_batched_errors(self):
        with pytest.raises(ZeroReference):
            reference_ratios(np.ones((3, 2)), np.array([1.0, 0.0, 2.0]))
        with pytest.raises(AllNonpositive):
            ratio_project(np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestRatioEstimate:
    def test_common_scale_cancels_exactly(self):
        # frozen channel, zero noise: Y_c = SM*beta*eta*q_c and R = SM*beta*eta
        pop = DevicePopulation([1.0], [0.37])
        labels = [validate_soft_label((0.7, 0.3))]
        cfg = RoundConfig(
            num_classes=2, reps=2, antennas=2, rho=1.7, noise_var=0.0,
            use_reference_re=True,
        )
        frame = map_energies(labels, pop, cfg.rho)
        y = frozen_received(frame, pop, cfg)
        res = ratio_estimate(y)
        assert np.allclose(res.projected.probs, [0.7, 0.3], atol=1e-12)
        assert res.used_ratio

    def test_degenerate_all_mass(self):
        res = ratio_estimate(received([0.0, 5.0], y_ref=5.0))
        assert np.allclose(res.projected.probs, [0.0, 1.0])

    def test_missing_reference(self):
        with pytest.raises(ZeroReference):
            ratio_estimate(received([1.0, 2.0]))

    def test_zero_reference(self):
        with pytest.raises(ZeroReference):
            ratio_estimate(received([1.0, 2.0], y_ref=0.0))

    def test_all_nonpositive(self):
        with pytest.raises(AllNonpositive):
            ratio_estimate(received([0.0, 0.0], y_ref=1.0))

    @given(kappa=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=50)
    def test_scale_invariance(self, kappa):
        y = np.array([2.0, 0.5, 1.5])
        base = ratio_estimate(received(y, y_ref=3.0))
        scaled = ratio_estimate(received(kappa * y, y_ref=kappa * 3.0))
        assert np.allclose(base.raw, scaled.raw, rtol=1e-9)
        assert np.allclose(base.projected.probs, scaled.projected.probs, rtol=1e-9)

    def test_heterogeneous_gamma_reweights_mean(self):
        # noise-free Monte Carlo mean approaches sum(w*gamma*q)/gamma_bar
        gammas = np.array([2.0, 1.0])
        pop = DevicePopulation(
            [0.5, 0.5], [1.0, 1.0], 1.0 / gammas, [100.0, 100.0]
        )
        labels = [validate_soft_label((0.9, 0.1)), validate_soft_label((0.2, 0.8))]
        cfg = RoundConfig(
            num_classes=2, reps=16, antennas=16, rho=1.0, noise_var=0.0,
            channel_model=ChannelModel.DIAGONAL, use_reference_re=True,
        )
        frame = map_energies(labels, pop, cfg.rho)
        y, ref = simulate_rounds(frame, pop, cfg, RandomSource(8), trials=30_000)
        ratios = y / ref[:, None]
        q = np.stack([lab.probs for lab in labels])
        target = (pop.omegas * gammas) @ q / (pop.omegas @ gammas)
        se = ratios.std(axis=0, ddof=1) / np.sqrt(ratios.shape[0])
        # second-order ratio bias is O(1/(SM)); SM = 256 pushes it below 3 SE
        assert np.all(np.abs(ratios.mean(axis=0) - target) <= 3 * se + 2.0 / 256)


class TestTopTTruncate:
    def test_worked_example_attains_bias_bound(self):
        q = validate_soft_label((0.5, 0.3, 0.1, 0.1))
        q_trunc, delta = top_t_truncate(q, 2)
        assert np.allclose(q_trunc.probs, [0.625, 0.375, 0.0, 0.0])
        assert delta == pytest.approx(0.2)
        l1 = np.abs(q_trunc.probs - q.probs).sum()
        assert l1 == pytest.approx(2 * delta)

    def test_t_equals_k_identity(self):
        q = validate_soft_label((0.4, 0.35, 0.25))
        q_trunc, delta = top_t_truncate(q, 3)
        assert np.allclose(q_trunc.probs, q.probs)
        assert delta == pytest.approx(0.0, abs=1e-15)

    def test_concentrated_mass(self):
        q = validate_soft_label((1.0, 0.0, 0.0))
        q_trunc, delta = top_t_truncate(q, 1)
        assert np.allclose(q_trunc.probs, [1.0, 0.0, 0.0])
        assert delta == 0.0

    def test_tie_broken_by_class_index(self):
        q = validate_soft_label((0.25, 0.25, 0.25, 0.25))
        q_trunc, delta = top_t_truncate(q, 2)
        assert np.allclose(q_trunc.probs, [0.5, 0.5, 0.0, 0.0])
        assert delta == pytest.approx(0.5)

    def test_bad_t(self):
        q = validate_soft_label((0.5, 0.5))
        with pytest.raises(BadT):
            top_t_truncate(q, 0)
        with pytest.raises(BadT):
            top_t_truncate(q, 3)

    def test_per_device_l1_is_twice_tail_mass(self):
        gen = np.random.default_rng(5)
        for _ in range(200):
            k = int(gen.integers(3, 12))
            q = validate_soft_label(gen.dirichlet(np.full(k, 0.4)))
            t = int(gen.integers(1, k + 1))
            q_trunc, delta = top_t_truncate(q, t)
            l1 = np.abs(q_trunc.probs - q.probs).sum()
            assert l1 == pytest.approx(2 * delta, abs=1e-12)

    def test_aggregate_bias_bound(self):
        # ||sum_i w_i (q_i^T - q_i)||_1 <= 2 * sum_i w_i delta_i, exhaustively
        gen = np.random.default_rng(6)
        for _ in range(300):
            n, k = int(gen.integers(1, 6)), int(gen.integers(3, 10))
            w = gen.dirichlet(np.ones(n))
            labels = [validate_soft_label(gen.dirichlet(np.full(k, 0.4))) for _ in range(n)]
            t = int(gen.integers(1, k + 1))
            bias = np.zeros(k)
            delta_bar = 0.0
            for wi, lab in zip(w, labels):
                q_trunc, delta = top_t_truncate(lab, t)
                bias += wi * (q_trunc.probs - lab.probs)
                delta_bar += wi * delta
            assert np.abs(bias).sum() <= 2 * delta_bar + 1e-12

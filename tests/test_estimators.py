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
    SoftLabel,
    map_energies,
    ratio_estimate,
    ratio_raw,
    scene_estimate,
    scene_raw,
    simulate_rounds,
    top_t_truncate,
)
from scene_sim.estimators import clip_renormalize

from conftest import frozen_round, make_uniform_population

energy_vectors = hnp.arrays(
    np.float64,
    st.integers(min_value=2, max_value=12),
    elements=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


class TestSceneEstimate:
    def test_hand_evaluated_example(self):
        # K=2, S=M=1, rho=1, Y=(3,1): Ybar=2, raw = (1.5, -0.5)
        cfg = RoundConfig(num_classes=2, reps=1, antennas=1, rho=1.0)
        raw, projected = scene_estimate(np.array([3.0, 1.0]), cfg)
        assert np.allclose(raw, [1.5, -0.5])
        assert np.allclose(projected, [1.0, 0.0])

    def test_equal_energies_give_uniform(self):
        cfg = RoundConfig(num_classes=4, reps=2, antennas=3, rho=0.7)
        raw, _ = scene_estimate(np.full(4, 5.0), cfg)
        assert np.allclose(raw, 0.25)

    def test_noise_free_fixed_gain_recovery(self):
        pop = make_uniform_population(1)
        labels = [SoftLabel((0.7, 0.3))]
        cfg = RoundConfig(num_classes=2, reps=3, antennas=2, rho=2.0, noise_var=0.0)
        frame = map_energies(labels, pop, cfg.rho)
        y, _ = frozen_round(frame, pop, cfg)
        raw, _ = scene_estimate(y, cfg)
        assert np.allclose(raw, [[0.7, 0.3]], atol=1e-12)

    def test_zero_rho(self):
        with pytest.raises(ValueError, match="rho must be positive"):
            scene_raw(np.array([1.0, 2.0]), 1, 0.0)

    @pytest.mark.parametrize("sample_count", [0, -1, 0.5])
    def test_sample_count_below_one(self, sample_count):
        # 0 divided by zero, and -1 returned the sign-flipped [[1, 0]]
        with pytest.raises(ValueError, match="sample_count must be an integer >= 1, got"):
            scene_raw([[1.0, 2.0]], sample_count, 1.0)
        assert np.array_equal(scene_raw([[1.0, 2.0]], 1, 1.0), [[0.0, 1.0]])

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
    """The light simplex projection of both estimators, clip_renormalize."""

    def test_single_positive_entry(self):
        assert np.allclose(clip_renormalize(np.array([1.5, -0.5])), [1.0, 0.0])

    def test_idempotent_on_simplex(self):
        v = np.array([0.2, 0.3, 0.5])
        assert np.allclose(clip_renormalize(v), v)

    def test_uniform_fallback(self):
        out = clip_renormalize(np.array([-1.0, -2.0, -3.0]))
        assert np.allclose(out, 1 / 3)

    @given(
        v=hnp.arrays(
            np.float64,
            st.integers(min_value=2, max_value=10),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
        )
    )
    @settings(max_examples=100)
    def test_output_is_valid_label(self, v):
        out = clip_renormalize(v)
        SoftLabel(out)
        # idempotence
        assert np.allclose(clip_renormalize(out), out, atol=1e-12)


class TestBatchedForms:
    """The estimators are vectorized over leading axes: each row of a batch
    equals the one-row call, and a bad row makes the whole batch raise."""

    def test_clip_renormalize_rows_match_single_rows(self):
        v = np.random.default_rng(3).normal(size=(50, 5))
        v[7] = -1.0  # nothing positive: uniform fallback
        for row_in, row_out in zip(v, clip_renormalize(v)):
            assert np.array_equal(clip_renormalize(row_in), row_out)

    def test_ratio_rows_match_ratio_estimate(self):
        gen = np.random.default_rng(4)
        y, y_ref = gen.uniform(0, 5, (20, 4)), gen.uniform(1, 5, 20)
        ratios, projected = ratio_estimate(y, y_ref)
        for i, (raw, proj) in enumerate(zip(ratios, projected)):
            single_raw, single_proj = ratio_estimate(y[i], float(y_ref[i]))
            assert np.array_equal(single_raw, raw)
            assert np.array_equal(single_proj, proj)

    def test_estimates_over_two_leading_axes(self):
        gen = np.random.default_rng(5)
        y, y_ref = gen.uniform(0, 5, (3, 7, 4)), gen.uniform(1, 5, (3, 7))
        cfg = RoundConfig(num_classes=4, reps=2, antennas=3, rho=0.4)
        for batch, single in (
            (scene_estimate(y, cfg), lambda i, j: scene_estimate(y[i, j], cfg)),
            (ratio_estimate(y, y_ref), lambda i, j: ratio_estimate(y[i, j], y_ref[i, j])),
        ):
            assert all(out.shape == y.shape for out in batch)
            for i in range(3):
                for j in range(7):
                    raw, projected = single(i, j)
                    assert np.array_equal(batch[0][i, j], raw)
                    assert np.array_equal(batch[1][i, j], projected)

    def test_in_place_forms_keep_arithmetic_and_inputs(self):
        # the estimators work in place on arrays they allocate: bit for bit
        # the out-of-place formulas, with the caller's arrays left as they were
        gen = np.random.default_rng(6)
        y = gen.uniform(0, 5, (30, 4))
        y[3] = 2.0  # raw 1/4 each, so nothing positive in raw - 0.3: uniform fallback
        y_ref = gen.uniform(1, 5, 30)
        y_before, ref_before = y.copy(), y_ref.copy()
        raw = scene_raw(y, 6, 0.7)
        expected = (y - y.mean(axis=-1, keepdims=True)) / (6 * 0.7) + 1.0 / 4
        assert raw.tobytes() == expected.tobytes()
        for v in (raw - 0.3, ratio_raw(y, y_ref)):
            clipped = np.maximum(v, 0.0)
            totals = clipped.sum(axis=-1, keepdims=True)
            expected = np.divide(clipped, totals, out=np.full_like(clipped, 0.25),
                                 where=totals > 0)
            v_before = v.copy()
            assert clip_renormalize(v).tobytes() == expected.tobytes()
            assert v.tobytes() == v_before.tobytes()
        assert y.tobytes() == y_before.tobytes() and y_ref.tobytes() == ref_before.tobytes()

    def test_batched_errors(self):
        for ratio in (ratio_estimate, ratio_raw):
            with pytest.raises(ValueError, match="reference energy must be positive"):
                ratio(np.ones((3, 2)), np.array([1.0, 0.0, 2.0]))
            with pytest.raises(ValueError, match="all ratio entries are nonpositive"):
                ratio(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones(2))


class TestRatioEstimate:
    def test_common_scale_cancels_exactly(self):
        # frozen channel, zero noise: Y_c = SM*beta*eta*q_c and R = SM*beta*eta
        pop = DevicePopulation([1.0], [0.37])
        labels = [SoftLabel((0.7, 0.3))]
        cfg = RoundConfig(
            num_classes=2, reps=2, antennas=2, rho=1.7, noise_var=0.0,
            use_reference_re=True,
        )
        frame = map_energies(labels, pop, cfg.rho)
        _, projected = ratio_estimate(*frozen_round(frame, pop, cfg))
        assert np.allclose(projected, [[0.7, 0.3]], atol=1e-12)

    def test_degenerate_all_mass(self):
        _, projected = ratio_estimate(np.array([0.0, 5.0]), 5.0)
        assert np.allclose(projected, [0.0, 1.0])

    def test_missing_reference(self):
        for ratio in (ratio_estimate, ratio_raw):
            with pytest.raises(ValueError, match="no reference slot"):
                ratio(np.array([1.0, 2.0]), None)

    def test_zero_reference(self):
        for ratio in (ratio_estimate, ratio_raw):
            with pytest.raises(ValueError, match="reference energy must be positive"):
                ratio(np.array([1.0, 2.0]), 0.0)

    @pytest.mark.parametrize("y_ref", [np.ones(5), np.ones((2, 1)), 1.0])
    def test_reference_shape_is_the_leading_shape(self, y_ref):
        # a (5,) reference raised numpy's broadcast error, and a (2, 1) one
        # broadcast silently to (2, 2, 3) ratios
        for ratio in (ratio_estimate, ratio_raw):
            with pytest.raises(ValueError, match=r"y_ref shape .* leading shape of y \(2, 3\)"):
                ratio(np.ones((2, 3)), y_ref)

    def test_all_nonpositive(self):
        for ratio in (ratio_estimate, ratio_raw):
            with pytest.raises(ValueError, match="all ratio entries are nonpositive"):
                ratio(np.array([0.0, 0.0]), 1.0)

    @given(kappa=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=50)
    def test_scale_invariance(self, kappa):
        y = np.array([2.0, 0.5, 1.5])
        base_raw, base_proj = ratio_estimate(y, 3.0)
        scaled_raw, scaled_proj = ratio_estimate(kappa * y, kappa * 3.0)
        assert np.allclose(base_raw, scaled_raw, rtol=1e-9)
        assert np.allclose(base_proj, scaled_proj, rtol=1e-9)

    def test_heterogeneous_gamma_reweights_mean(self):
        # noise-free Monte Carlo mean approaches sum(w*gamma*q)/gamma_bar
        gammas = np.array([2.0, 1.0])
        pop = DevicePopulation(
            [0.5, 0.5], [1.0, 1.0], 1.0 / gammas, [100.0, 100.0]
        )
        labels = [SoftLabel((0.9, 0.1)), SoftLabel((0.2, 0.8))]
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
        q = SoftLabel((0.5, 0.3, 0.1, 0.1))
        q_trunc, delta = top_t_truncate(q, 2)
        assert np.allclose(q_trunc.probs, [0.625, 0.375, 0.0, 0.0])
        assert delta == pytest.approx(0.2)
        l1 = np.abs(q_trunc.probs - q.probs).sum()
        assert l1 == pytest.approx(2 * delta)

    def test_t_equals_k_identity(self):
        q = SoftLabel((0.4, 0.35, 0.25))
        q_trunc, delta = top_t_truncate(q, 3)
        assert np.allclose(q_trunc.probs, q.probs)
        assert delta == pytest.approx(0.0, abs=1e-15)

    def test_concentrated_mass(self):
        q = SoftLabel((1.0, 0.0, 0.0))
        q_trunc, delta = top_t_truncate(q, 1)
        assert np.allclose(q_trunc.probs, [1.0, 0.0, 0.0])
        assert delta == 0.0

    def test_tie_broken_by_class_index(self):
        q = SoftLabel((0.25, 0.25, 0.25, 0.25))
        q_trunc, delta = top_t_truncate(q, 2)
        assert np.allclose(q_trunc.probs, [0.5, 0.5, 0.0, 0.0])
        assert delta == pytest.approx(0.5)

    def test_bad_t(self):
        q = SoftLabel((0.5, 0.5))
        with pytest.raises(ValueError, match="t must be an integer >= 1, got 0"):
            top_t_truncate(q, 0)
        with pytest.raises(ValueError, match="need 1 <= t <= 2"):
            top_t_truncate(q, 3)
        for t in (1.5, 2.0):  # 1.5 raised a bare TypeError from slicing
            with pytest.raises(ValueError, match="t must be an integer >= 1"):
                top_t_truncate(q, t)
        assert top_t_truncate(q, np.int64(2))[1] == 0.0

    def test_per_device_l1_is_twice_tail_mass(self):
        gen = np.random.default_rng(5)
        for _ in range(200):
            k = int(gen.integers(3, 12))
            q = SoftLabel(gen.dirichlet(np.full(k, 0.4)))
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
            labels = [SoftLabel(gen.dirichlet(np.full(k, 0.4))) for _ in range(n)]
            t = int(gen.integers(1, k + 1))
            bias = np.zeros(k)
            delta_bar = 0.0
            for wi, lab in zip(w, labels):
                q_trunc, delta = top_t_truncate(lab, t)
                bias += wi * (q_trunc.probs - lab.probs)
                delta_bar += wi * delta
            assert np.abs(bias).sum() <= 2 * delta_bar + 1e-12

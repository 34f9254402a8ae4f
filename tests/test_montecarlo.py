import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scene_sim import (
    ChannelModel,
    Estimator,
    ExperimentSpec,
    LabelKind,
    LabelSpec,
    PopulationSpec,
    RandomSource,
    RhoRule,
    TrialStats,
    WeightRule,
    estimate_mse_constants,
    run_experiment,
    scene_variance_diagonal,
    variance_bound,
)
from scene_sim.channel import PathlossModel
from scene_sim.core import (
    BadRange,
    DevicePopulation,
    NonFiniteEntry,
    NotNormalized,
    RoundConfig,
    SoftLabel,
)
from scene_sim.montecarlo import CSV_HEADER, InsufficientSweep, MixedSnr, write_rows_csv


def unit_population_spec(n=1):
    """Deterministic population: beta = 1, caps = 1, uniform weights."""
    return PopulationSpec(
        n_devices=n,
        pathloss=PathlossModel(3.5, (10.0, 10.0), 0.0, normalize_mean=True),
        power_cap_range=(1.0, 1.0),
        weight_rule="uniform",
    )


class TestTrialStats:
    def test_from_samples_matches_numpy(self):
        x = np.random.default_rng(0).normal(size=(500, 3))
        st_ = TrialStats.from_samples(x)
        assert np.allclose(st_.mean, x.mean(axis=0))
        assert np.allclose(st_.variance, x.var(axis=0, ddof=1))
        assert np.allclose(st_.std_error, x.std(axis=0, ddof=1) / np.sqrt(500))

    def test_single_observation_variance_undefined(self):
        st_ = TrialStats.from_samples(np.array([[1.0, 2.0]]))
        assert st_.n == 1
        assert np.all(np.isnan(st_.variance))

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        cut=st.integers(min_value=1, max_value=199),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_concatenation(self, seed, cut):
        x = np.random.default_rng(seed).normal(size=(200, 3), scale=5.0)
        merged = TrialStats.from_samples(x[:cut]).merge(TrialStats.from_samples(x[cut:]))
        whole = TrialStats.from_samples(x)
        assert merged.n == whole.n
        assert np.allclose(merged.mean, whole.mean, rtol=1e-12, atol=1e-12)
        assert np.allclose(merged.m2, whole.m2, rtol=1e-9)

    def test_merge_associative(self):
        x = np.random.default_rng(2).normal(size=(300, 2))
        a = TrialStats.from_samples(x[:100])
        b = TrialStats.from_samples(x[100:220])
        c = TrialStats.from_samples(x[220:])
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert np.allclose(left.mean, right.mean, rtol=1e-12)
        assert np.allclose(left.m2, right.m2, rtol=1e-9)



class TestLabelSpec:
    def test_vertex_labels_are_one_hot(self):
        from scene_sim import RandomSource

        spec = LabelSpec(kind="vertex", num_classes=6)
        labels = spec.draw(8, RandomSource(3))
        for lab in labels:
            assert lab.probs.max() == 1.0
            assert lab.probs.sum() == 1.0
            assert (lab.probs > 0).sum() == 1

    def test_fixed_labels_roundtrip(self):
        from scene_sim import RandomSource

        spec = LabelSpec(kind="fixed", num_classes=3, fixed=((0.2, 0.3, 0.5),))
        (lab,) = spec.draw(1, RandomSource(0))
        assert np.allclose(lab.probs, [0.2, 0.3, 0.5])

    def test_fixed_labels_length_checked(self):
        from scene_sim import RandomSource

        spec = LabelSpec(kind="fixed", num_classes=3, fixed=((0.2, 0.3, 0.5),))
        with pytest.raises(ValueError):
            spec.draw(2, RandomSource(0))

    def test_fixed_row_length_checked_at_construction(self):
        # a 3-entry label under num_classes 10 used to run at K = 3
        with pytest.raises(ValueError, match="num_classes = 10"):
            LabelSpec(kind="fixed", num_classes=10, fixed=((0.2, 0.3, 0.5),))
        with pytest.raises(ValueError, match="num_classes = 3"):
            LabelSpec(kind="fixed", num_classes=3, fixed=((0.2, 0.8), (0.2, 0.3, 0.5)))

    def test_fixed_rows_on_simplex_at_construction(self):
        with pytest.raises(NotNormalized):
            LabelSpec(kind="fixed", num_classes=2, fixed=((0.2, 0.3),))
        with pytest.raises(NonFiniteEntry):
            LabelSpec(kind="fixed", num_classes=2, fixed=((float("nan"), 1.0),))

    @pytest.mark.parametrize("alpha", [0.0, -0.5, float("nan")])
    def test_alpha_checked_at_construction(self, alpha):
        # used to fail only when drawing, with NotNormalized
        with pytest.raises(ValueError, match="alpha"):
            LabelSpec(kind="dirichlet", alpha=alpha)

    def test_fixed_row_count_must_match_devices(self):
        labels = LabelSpec(kind="fixed", num_classes=2, fixed=((0.5, 0.5),) * 3)
        with pytest.raises(ValueError, match="3 fixed labels for 4 devices"):
            small_spec(population=PopulationSpec(n_devices=4), labels=labels)
        small_spec(population=PopulationSpec(n_devices=3), labels=labels)


class TestPopulationSpec:
    @pytest.mark.parametrize("field", ["power_cap_range", "gamma_range"])
    @pytest.mark.parametrize("lo_hi", [(-0.2, 1.5), (0.0, 1.0), (1.5, 0.5)])
    def test_ranges_checked_at_construction(self, field, lo_hi):
        # (-0.2, 1.5) used to pass or fail depending on the drawn caps
        with pytest.raises(BadRange, match=field):
            PopulationSpec(**{field: lo_hi})

    def test_degenerate_ranges_allowed(self):
        pop = PopulationSpec(n_devices=3, power_cap_range=(1.0, 1.0), gamma_range=(0.8, 0.8))
        drawn = pop.draw(RandomSource(0))
        assert np.allclose(drawn.power_caps, 1.0) and np.allclose(drawn.gammas, 0.8)


def small_spec(**overrides):
    base = dict(
        population=PopulationSpec(n_devices=3),
        labels=LabelSpec(kind="dirichlet", num_classes=5, alpha=0.3),
        sm_pairs=((2, 2),),
        snr_db_values=(5.0,),
        channel_model=ChannelModel.DIAGONAL,
        trials=2000,
        seed=7,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def strip_wall(rows):
    """Drop the wall-clock diagnostic before comparing result rows."""
    import dataclasses

    return [dataclasses.replace(r, wall_time=0.0) for r in rows]


class TestRunExperiment:
    def test_deterministic_given_seed(self):
        rows_a = run_experiment(small_spec())
        rows_b = run_experiment(small_spec())
        assert strip_wall(rows_a) == strip_wall(rows_b)

    def test_thread_count_does_not_change_results(self):
        spec = small_spec(trials=45_000)  # 3 jobs
        serial = run_experiment(spec, threads=1)
        threaded = run_experiment(spec, threads=4)
        assert strip_wall(serial) == strip_wall(threaded)

    def test_single_trial_has_empty_variance(self):
        rows = run_experiment(small_spec(trials=1))
        assert all(r.var is None and r.se is None for r in rows)
        buf = io.StringIO()
        write_rows_csv(rows, buf)
        line = buf.getvalue().splitlines()[1]
        # var, var_bound(raw only), se serialized as empty fields
        assert ",,," not in CSV_HEADER  # sanity on header shape
        assert line.count(",") == CSV_HEADER.count(",")

    def test_row_structure(self):
        rows = run_experiment(small_spec(estimator="both"))
        names = {r.estimator for r in rows}
        assert names == {"scene", "scene_proj", "ratio", "ratio_proj"}
        k = 5
        assert len(rows) == 4 * k
        scene_rows = [r for r in rows if r.estimator == "scene"]
        assert all(r.var_bound is not None for r in scene_rows)
        assert all(
            r.var_bound is None for r in rows if r.estimator != "scene"
        )

    def test_settings_by_value_or_member(self):
        spec = small_spec(estimator="both", rho_rule="fixed")
        assert spec.estimator is Estimator.BOTH and spec.rho_rule is RhoRule.FIXED
        with pytest.raises(ValueError):
            small_spec(estimator="ratoi")
        assert PopulationSpec(weight_rule="random").weight_rule is WeightRule.RANDOM
        assert LabelSpec(kind="vertex").kind is LabelKind.VERTEX
        with pytest.raises(ValueError):
            PopulationSpec(weight_rule="randon")
        with pytest.raises(ValueError):
            LabelSpec(kind="vertx")

    def test_sweep_correlation_reaches_kernel(self):
        spec = small_spec(sm_pairs=((4, 1),))
        independent = run_experiment(spec)
        correlated = run_experiment(small_spec(sm_pairs=((4, 1),), time_corr=0.5))
        assert strip_wall(independent) != strip_wall(correlated)
        with pytest.raises(ValueError, match="time_corr"):
            small_spec(time_corr=1.5)

    def test_unbiased_within_3se(self):
        rows = run_experiment(small_spec(trials=30_000))
        for r in rows:
            if r.estimator == "scene":
                assert abs(r.bias) <= 3 * r.se

    def test_csv_roundtrip_bytes_identical(self):
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_rows_csv(run_experiment(small_spec()), buf_a)
        write_rows_csv(run_experiment(small_spec()), buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()
        assert buf_a.getvalue().startswith(CSV_HEADER + "\n")

    def test_variance_law_across_sm_splits(self):
        spec = small_spec(
            sm_pairs=((1, 16), (16, 1), (4, 4)),
            trials=20_000,
        )
        rows = [r for r in run_experiment(spec) if r.estimator == "scene"]
        by_point = {}
        for r in rows:
            by_point.setdefault((r.s, r.m), []).append(r.var * r.s * r.m)
        scaled = np.array([np.mean(v) for v in by_point.values()])
        spread = (scaled.max() - scaled.min()) / scaled.mean()
        assert spread < 0.10

    def test_ci_coverage_sanity(self):
        # 3*SE bands should cover the target in >= 99% of (run, class) pairs
        hits = 0
        total = 0
        for seed in range(100):
            rows = run_experiment(small_spec(trials=10_000, seed=seed))
            for r in rows:
                if r.estimator != "scene":
                    continue
                total += 1
                hits += abs(r.bias) <= 3 * r.se
        assert hits / total >= 0.99


class TestEstimateMseConstants:
    def test_requires_three_distinct_products(self):
        with pytest.raises(InsufficientSweep):
            estimate_mse_constants(small_spec(sm_pairs=((1, 16), (16, 1), (4, 4))))

    def test_matches_exact_diagonal_constant(self):
        # N=1, beta=1, cap=1 -> rho=1; near-noiseless; the fitted constant
        # must match the closed-form Var(r_c)*S*M, class-averaged
        labels = ((0.55, 0.25, 0.12, 0.05, 0.03),)
        spec = small_spec(
            population=unit_population_spec(1),
            labels=LabelSpec(kind="fixed", num_classes=5, fixed=labels),
            sm_pairs=((1, 1), (2, 2), (4, 4), (8, 1)),
            snr_db_values=(200.0,),
            trials=20_000,
        )
        est = estimate_mse_constants(spec)
        pop = DevicePopulation([1.0], [1.0])
        labs = [SoftLabel(labels[0])]
        cfg = RoundConfig(num_classes=5, reps=1, antennas=1, rho=1.0, noise_var=0.0,
                          channel_model=ChannelModel.DIAGONAL)
        exact = float(np.mean(scene_variance_diagonal(pop, labs, cfg)))
        assert est.c_nc == pytest.approx(exact, rel=0.05)
        # the fitted constant respects the analytic upper bound
        bound_avg = float(np.mean(variance_bound(pop, labs, cfg)))
        assert est.c_nc <= bound_avg

    def test_sm_split_invariance_within_two_se(self):
        trials = 20_000
        spec = small_spec(
            population=unit_population_spec(2),
            sm_pairs=((4, 4), (16, 1), (2, 2), (1, 8)),
            trials=trials,
        )
        est = estimate_mse_constants(spec)
        # (4,4) and (16,1) share S*M = 16: their fitted constants must agree
        # within sampling error; the relative SE of a sample variance is about
        # sqrt(2/T) per class, kept unaveraged as a conservative combined SE
        per_point = dict(zip([(4, 4), (16, 1), (2, 2), (1, 8)], est.per_point))
        c44, c161 = per_point[(4, 4)], per_point[(16, 1)]
        combined_se = np.sqrt(2.0) * np.sqrt(2.0 / trials) * max(c44, c161)
        assert abs(c44 - c161) <= 2 * combined_se

    def test_rejects_several_snrs(self):
        spec = small_spec(sm_pairs=((1, 1), (2, 2), (4, 4)), snr_db_values=(5.0, 10.0))
        with pytest.raises(MixedSnr, match=r"5\.0, 10\.0"):
            estimate_mse_constants(spec)

    @pytest.mark.parametrize("overrides", [
        dict(estimator=Estimator.RATIO), dict(trials=1),
    ], ids=["ratio_only", "one_trial"])
    def test_rejects_sweeps_without_scene_variances(self, overrides):
        # there are no scene variances to fit: this used to return c_nc = nan
        spec = small_spec(sm_pairs=((1, 1), (2, 2), (4, 4)), **overrides)
        with pytest.raises(InsufficientSweep):
            estimate_mse_constants(spec)

    def test_rho_invariance_at_fixed_snr(self):
        common = dict(
            population=unit_population_spec(2),
            sm_pairs=((1, 1), (2, 2), (4, 4)),
            snr_db_values=(5.0,),
            trials=20_000,
        )
        est1 = estimate_mse_constants(small_spec(rho_rule="fixed", rho_value=1.0, **common))
        est2 = estimate_mse_constants(small_spec(rho_rule="fixed", rho_value=2.0, **common))
        assert est1.c_nc == pytest.approx(est2.c_nc, rel=0.1)

import io
import itertools
import sys
import time
from concurrent.futures import ThreadPoolExecutor

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
    ResultRow,
    RhoRule,
    TrialStats,
    WeightRule,
    map_energies,
    mse_constant,
    ratio_raw,
    run_experiment,
    scene_raw,
    simulate_rounds,
)
from scene_sim import montecarlo
from scene_sim.channel import PathlossModel
from scene_sim.estimators import clip_renormalize
from scene_sim.montecarlo import CSV_HEADER, write_rows_csv


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

    def test_no_samples_rejected(self):
        # zero rows gave n = 0 and a nan mean, with "Mean of empty slice"
        with pytest.raises(ValueError, match="x holds no samples"):
            TrialStats.from_samples(np.empty((0, 3)))

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
        with pytest.raises(ValueError, match="^fixed labels: entries sum to"):
            LabelSpec(kind="fixed", num_classes=2, fixed=((0.2, 0.3),))
        with pytest.raises(ValueError, match="^fixed labels: .* must be finite"):
            LabelSpec(kind="fixed", num_classes=2, fixed=((float("nan"), 1.0),))

    @pytest.mark.parametrize("alpha", [0.0, -0.5, float("nan")])
    def test_alpha_checked_at_construction(self, alpha):
        # used to fail only when drawing, on the label row sums
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
        with pytest.raises(ValueError, match=field):
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


class TestRunExperiment:
    def test_deterministic_given_seed(self):
        rows_a = run_experiment(small_spec())
        rows_b = run_experiment(small_spec())
        assert rows_a == rows_b

    def test_thread_count_does_not_change_results(self):
        # every job runs on the pool, one worker for None and 1; the
        # correlated superposition jobs of N = 3, K = 5, S*M = 4 run two
        # blocks of whole chunks each; the 2 x 2 grid of two jobs a point
        # puts jobs of different points on the workers at once
        specs = (small_spec(trials=45_000),  # 3 jobs
                 small_spec(estimator="both", trials=45_000, time_corr=0.3, space_corr=0.2,
                            channel_model=ChannelModel.SUPERPOSITION),
                 small_spec(estimator="both", trials=25_000, sm_pairs=((2, 2), (4, 1)),
                            snr_db_values=(5.0, 10.0)))
        for spec in specs:
            rows = run_experiment(spec, threads=1)
            for threads in (None, 2, 4):
                assert run_experiment(spec, threads=threads) == rows

    @pytest.mark.parametrize("threads", [1, 2, 0, -1])
    def test_failing_job_names_its_point(self, monkeypatch, threads):
        def fail(*args, **kwargs):
            raise ValueError("channel failed")

        monkeypatch.setattr(montecarlo, "simulate_rounds", fail)
        if threads < 1:  # rejected before any setup: 0 used to run on one worker
            with pytest.raises(ValueError, match=f"threads must be an integer >= 1, got {threads}"):
                run_experiment(small_spec(), threads=threads)
            return
        with pytest.raises(RuntimeError, match=r"sweep point S=2, M=2, snr_db=5\.0 failed: "
                                               "channel failed"):
            run_experiment(small_spec(), threads=threads)

    @staticmethod
    def count_channel_calls(monkeypatch, good_calls=None):
        # calls after the first good_calls fail (None: none fail)
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            if good_calls is not None and len(calls) > good_calls:
                raise ValueError("channel failed")
            return simulate_rounds(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "simulate_rounds", counted)
        return calls

    def test_every_point_checked_before_any_trial(self, monkeypatch):
        # the noise term of the second point overflows: that point used to
        # fail only after the first had run all its trials
        calls = self.count_channel_calls(monkeypatch)
        spec = ExperimentSpec(snr_db_values=(5.0, -3000.0), channel_model="diagonal",
                              trials=200_000)
        with pytest.raises(RuntimeError, match=r"sweep point S=4, M=4, snr_db=-3000\.0 failed: "
                                               "noise_var .* overflows"):
            run_experiment(spec, threads=2)
        with pytest.raises(ValueError, match="threads must be an integer >= 1, got 0"):
            run_experiment(spec, threads=0)
        assert calls == []

    @pytest.mark.parametrize("threads, good_calls, snr", [(1, 0, "5"), (2, 0, "5"), (4, 30, "10")])
    def test_failing_point_cancels_queued_jobs(self, monkeypatch, threads, good_calls, snr):
        # 6 points of 20 ten-trial jobs: the first failing job stops the run
        # instead of the pool running the other jobs. With more workers than
        # cores and a short switch interval, the jobs of the first point pass
        # and a failure in the second is the one reported, not a job that
        # never ran.
        monkeypatch.setattr(montecarlo, "_JOB_TRIALS", 10)
        calls = self.count_channel_calls(monkeypatch, good_calls)
        spec = small_spec(sm_pairs=((1, 1), (2, 1), (1, 2)), snr_db_values=(5.0, 10.0),
                          trials=200)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with pytest.raises(RuntimeError, match=rf"sweep point S=1, M=1, snr_db={snr}\.0 "
                                                   "failed: channel failed"):
                run_experiment(spec, threads=threads)
        finally:
            sys.setswitchinterval(interval)
        assert good_calls < len(calls) < good_calls + 10

    def test_stalled_job_does_not_hide_the_failure(self, monkeypatch):
        # the last of the first point's 20 jobs stalls before it starts while
        # the other workers run on into the second point, where a job fails;
        # the stalled job then raises CancelledError, which was reported as
        # the first point's failure with an empty reason
        monkeypatch.setattr(montecarlo, "_JOB_TRIALS", 10)
        calls = self.count_channel_calls(monkeypatch, 30)

        class StallingPool(montecarlo.ThreadPoolExecutor):
            def map(self, fn, *iterables):
                def job(number, *args):
                    if number == 20:
                        time.sleep(0.5)
                    return fn(*args)

                return super().map(job, itertools.count(1), *iterables)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", StallingPool)
        spec = small_spec(sm_pairs=((1, 1), (2, 1), (1, 2)), snr_db_values=(5.0, 10.0),
                          trials=200)
        with pytest.raises(RuntimeError, match=r"sweep point S=1, M=1, snr_db=10\.0 "
                                               "failed: channel failed"):
            run_experiment(spec, threads=4)
        assert 30 < len(calls) < 40

    def test_one_pool_per_run(self, monkeypatch):
        # every point's jobs share one pool: counted as the benchmark tracer
        # swaps its pool in
        pools = []

        class CountedPool(montecarlo.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(None)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", CountedPool)
        run_experiment(small_spec(sm_pairs=((2, 2), (4, 1)), snr_db_values=(5.0, 10.0),
                                  trials=25_000), threads=2)
        assert len(pools) == 1

    def test_single_trial_has_empty_variance(self):
        rows = run_experiment(small_spec(trials=1))
        assert all(r.var is None and r.se is None for r in rows)
        buf = io.StringIO()
        write_rows_csv(rows, buf)
        line = buf.getvalue().splitlines()[1]
        # var, var_bound(raw only), se serialized as empty fields
        assert ",,," not in CSV_HEADER  # sanity on header shape
        assert line.count(",") == CSV_HEADER.count(",")

    def test_csv_row_bytes(self):
        # None cells are empty, floats take 17 significant digits, the rest str()
        rows = [ResultRow(4, 2, 7.5, 0.1, "superposition", "scene_proj", 3, 1 / 3, -1e-18,
                          None, None, None, 1, 0),
                ResultRow(1, 1, -20.0, 2.0, "diagonal", "scene", 0, 0.25, 0.0, 1.5e300, 2.0,
                          0.1, 20000, 5)]
        buf = io.StringIO()
        write_rows_csv(rows, buf)
        assert buf.getvalue() == (
            CSV_HEADER + "\n"
            "4,2,7.5,0.10000000000000001,superposition,scene_proj,3,0.33333333333333331,"
            "-1.0000000000000001e-18,,,,1,0\n"
            "1,1,-20,2,diagonal,scene,0,0.25,0,1.5000000000000001e+300,2,0.10000000000000001,"
            "20000,5\n"
        )

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

    @pytest.mark.parametrize(
        "setting",
        [{"channel_model": ChannelModel.SUPERPOSITION}, {"time_corr": 0.5}, {"space_corr": 0.5}],
        ids=["superposition", "time_corr", "space_corr"],
    )
    def test_var_bound_empty_where_it_does_not_hold(self, setting):
        # variance_bound assumes the diagonal model with independent samples
        # (test_row_structure's points); a superposition sweep read var up to
        # 2.25x past it, a time_corr 0.9 one about 3.8x
        rows = run_experiment(small_spec(sm_pairs=((4, 2),), trials=200, **setting))
        assert [r.var_bound for r in rows if r.estimator == "scene"] == [None] * 5

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
        assert independent != correlated
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


def one_call_per_job(spec, pop, labels, cfg, rng):
    """Point stats from one channel call and one ``from_samples`` per job,
    merged in job order: what ``_point_stats`` computed before it streamed."""
    frame = map_energies(labels, pop, cfg.rho)
    jobs = [min(montecarlo._JOB_TRIALS, spec.trials - lo)
            for lo in range(0, spec.trials, montecarlo._JOB_TRIALS)]
    merged = {}
    for count, stream in zip(jobs, rng.split(len(jobs))):
        y, y_ref = simulate_rounds(frame, pop, cfg, stream, trials=count)
        raws = {}
        if spec.estimator is not Estimator.RATIO:
            raws["scene"] = scene_raw(y, cfg.sample_count, cfg.rho)
        if spec.estimator is not Estimator.SCENE:
            raws["ratio"] = ratio_raw(y, y_ref)
        for name, raw in raws.items():
            for key, x in ((name, raw), (name + "_proj", clip_renormalize(raw))):
                stats = TrialStats.from_samples(x)
                merged[key] = merged[key].merge(stats) if key in merged else stats
    return merged


class TestStreamedPointStats:
    """``_point_stats`` streams each job through the estimators in blocks of
    whole channel chunks: the draws of one call per job, merged per block."""

    @staticmethod
    def both(spec, threads):
        pop, labels, _ = spec.draw()
        (s, m), = spec.sm_pairs
        cfg, frame, _ = spec.point(pop, labels, s, m, spec.snr_db_values[0])
        with ThreadPoolExecutor(max_workers=threads) as pool:
            jobs = montecarlo._point_stats(spec, pop, frame, cfg, RandomSource(11), pool, [])
            streamed = montecarlo._merged(jobs)
        reference = one_call_per_job(spec, pop, labels, cfg, RandomSource(11))
        assert list(streamed) == list(reference)
        return streamed, reference

    @pytest.mark.parametrize("threads", [1, 2])
    def test_job_of_one_chunk_is_exact(self, threads):
        # N = 1, K = 5 diagonal: a 20 000-trial job fits one 43 690-trial
        # chunk, so one block
        spec = small_spec(population=PopulationSpec(n_devices=1), estimator="both",
                          trials=45_000)
        for a, b in zip(*(d.values() for d in self.both(spec, threads))):
            assert a.n == b.n
            assert a.mean.tobytes() == b.mean.tobytes() and a.m2.tobytes() == b.m2.tobytes()

    @pytest.mark.parametrize("model", [ChannelModel.SUPERPOSITION, ChannelModel.DIAGONAL])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_blocks_match_within_rounding(self, threads, model):
        # N = 3, K = 5, S*M = 4 superposition: 6 944-trial chunks, blocks of two
        # chunks, so the 20 000-trial job runs 13 888 + 6 112 trials; diagonal:
        # 14 563-trial chunks, one a block, so it runs 14 563 + 5 437. The last
        # job runs 5 000 trials.
        spec = small_spec(estimator="both", trials=25_000, channel_model=model)
        for a, b in zip(*(d.values() for d in self.both(spec, threads))):
            assert a.n == b.n == 25_000
            np.testing.assert_allclose(a.mean, b.mean, rtol=1e-12)
            np.testing.assert_allclose(a.m2, b.m2, rtol=1e-12)


class TestEstimateMseConstants:
    """c_nc, the noncoherent MSE constant of the crossover: its exact value,
    :func:`montecarlo.mse_constant`, and the Monte Carlo sweeps that estimate
    it as the mean over points of the class-mean ``var`` * S * M."""

    # c_nc is the same at every point of an uncorrelated sweep, so the 16
    # independent per-point estimates give the SE of their mean, their SD
    # over sqrt(16). A 4-SE band fails falsely with probability about 0.0012
    # per test (t with 15 degrees of freedom).
    SM_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 4), (4, 1), (2, 4), (4, 2), (4, 4),
                (1, 8), (8, 1), (2, 8), (8, 2), (1, 16), (16, 1), (3, 3))

    def check_sweep_estimate(self, model):
        spec = small_spec(
            population=PopulationSpec(n_devices=3, weight_rule="random", gamma_range=(0.8, 1.2)),
            sm_pairs=self.SM_PAIRS, channel_model=model, trials=10_000,
        )
        per_point = {}
        for r in run_experiment(spec):
            if r.estimator == "scene":
                per_point.setdefault((r.s, r.m), []).append(r.var * r.s * r.m)
        estimates = [np.mean(v) for v in per_point.values()]
        se = np.std(estimates, ddof=1) / np.sqrt(len(estimates))
        exact = mse_constant(spec)
        assert abs(np.mean(estimates) - exact) <= 4 * se, (np.mean(estimates), exact, se)
        return spec

    def test_matches_exact_diagonal_constant(self):
        spec = self.check_sweep_estimate(ChannelModel.DIAGONAL)
        # the exact constant respects the analytic upper bound
        pop, labels, _ = spec.draw()
        bounds = [np.mean(spec.point(pop, labels, s, m, 5.0)[2]) * s * m for s, m in spec.sm_pairs]
        assert mse_constant(spec) <= np.mean(bounds)

    def test_matches_exact_superposition_constant(self):
        self.check_sweep_estimate(ChannelModel.SUPERPOSITION)

    def test_sm_split_invariance_within_two_se(self):
        trials = 20_000
        spec = small_spec(
            population=unit_population_spec(2),
            sm_pairs=((4, 4), (16, 1), (2, 2), (1, 8)),
            trials=trials,
        )
        rows = run_experiment(spec)

        def constant(s, m):  # the per-point value the c_nc fit averages
            return float(np.mean([r.var * s * m for r in rows
                                  if r.estimator == "scene" and (r.s, r.m) == (s, m)]))

        # (4,4) and (16,1) share S*M = 16: their constants must agree within
        # sampling error; the relative SE of a sample variance is about
        # sqrt(2/T) per class, kept unaveraged as a conservative combined SE
        c44, c161 = constant(4, 4), constant(16, 1)
        combined_se = np.sqrt(2.0) * np.sqrt(2.0 / trials) * max(c44, c161)
        assert abs(c44 - c161) <= 2 * combined_se

    def test_rho_invariance_at_fixed_snr(self):
        # the noise power follows rho at a fixed SNR, so c_nc does not move
        common = dict(
            population=unit_population_spec(2),
            sm_pairs=((1, 1), (2, 2), (4, 4)),
            snr_db_values=(5.0,),
        )
        c1 = mse_constant(small_spec(rho_rule="fixed", rho_value=1.0, **common))
        c2 = mse_constant(small_spec(rho_rule="fixed", rho_value=2.0, **common))
        assert c1 == pytest.approx(c2, rel=1e-12)

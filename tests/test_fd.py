import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import scene_sim.fd
from scene_sim import (
    FdProtocolConfig,
    FdSetup,
    RandomSource,
    SoftmaxClassifier,
    SyntheticDataset,
    pretrain_clients,
    run_fd,
    split_dataset,
)
from scene_sim.cli import load_config
from scene_sim.core import DevicePopulation, RoundConfig, SoftLabel
from scene_sim.estimators import ratio_estimate, scene_estimate
from scene_sim.fd import (
    Aggregation,
    DatasetSpec,
    Divergence,
    FdMetrics,
    aggregate_targets,
    fd_csv_row,
    train_lockstep,
)
from scene_sim.power import map_energies

from conftest import frozen_round, reference_sgd

ROOT = Path(__file__).resolve().parent.parent


class TestSyntheticDataset:
    def test_balanced_within_one(self, rng):
        data = SyntheticDataset.generate(rng, DatasetSpec(num_classes=7, size=1000))
        counts = np.bincount(data.labels, minlength=7)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 1000

    def test_means_orthonormal_when_k_le_d(self, rng):
        data = SyntheticDataset.generate(rng, DatasetSpec(num_classes=8, dim=16, size=100))
        gram = data.means @ data.means.T
        assert np.allclose(gram, np.eye(8), atol=1e-12)

    def test_means_unit_norm_when_k_gt_d(self, rng):
        data = SyntheticDataset.generate(rng, DatasetSpec(num_classes=10, dim=4, size=100))
        norms = np.linalg.norm(data.means, axis=1)
        assert np.allclose(norms, 1.0)

    def test_same_seed_bit_identical(self):
        a = SyntheticDataset.generate(RandomSource(3), DatasetSpec(size=500))
        b = SyntheticDataset.generate(RandomSource(3), DatasetSpec(size=500))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_shapes(self, rng):
        data = SyntheticDataset.generate(rng, DatasetSpec(num_classes=5, dim=12, size=333))
        assert data.features.shape == (333, 12)
        assert data.labels.shape == (333,)
        assert data.means.shape == (5, 12)

    @pytest.mark.parametrize("field, value", [("num_classes", 0), ("num_classes", 1),
                                              ("size", 0), ("dim", 0), ("noise_std", -0.3)])
    def test_bad_argument_is_named(self, field, value):
        message = rf"^{field} must be .*, got {value}$"
        with pytest.raises(ValueError, match=message):
            DatasetSpec(**{field: value})


class TestSoftmaxClassifier:
    def test_predictions_are_soft_labels(self, rng):
        model = SoftmaxClassifier.initialize(8, 5, rng)
        x = rng.generator.standard_normal((20, 8))
        probs = model.predict_proba(x)
        for row in probs:
            SoftLabel(row)

    def test_gradient_matches_finite_differences(self, rng):
        # central differences of the mean KL loss, relative 1e-4
        gen = rng.generator
        model = SoftmaxClassifier(
            0.5 * gen.standard_normal((6, 4)), 0.1 * gen.standard_normal(4)
        )
        x = gen.standard_normal((12, 6))
        targets = gen.dirichlet(np.full(4, 0.5), size=12)

        p = model.predict_proba(x)
        grad_scores = (p - targets) / x.shape[0]
        grad_w = x.T @ grad_scores
        grad_b = grad_scores.sum(axis=0)

        h = 1e-6
        check = gen.choice(6 * 4, size=10, replace=False)
        for flat in check:
            i, j = divmod(int(flat), 4)
            for sign in (1, -1):
                model.weights[i, j] += sign * h
                if sign == 1:
                    up = model.kl_loss(x, targets)
                else:
                    down = model.kl_loss(x, targets)
                model.weights[i, j] -= sign * h
            numeric = (up - down) / (2 * h)
            assert numeric == pytest.approx(grad_w[i, j], rel=1e-4, abs=1e-10)
        for j in range(4):
            for sign in (1, -1):
                model.bias[j] += sign * h
                if sign == 1:
                    up = model.kl_loss(x, targets)
                else:
                    down = model.kl_loss(x, targets)
                model.bias[j] -= sign * h
            numeric = (up - down) / (2 * h)
            assert numeric == pytest.approx(grad_b[j], rel=1e-4, abs=1e-10)

    def test_training_reduces_loss(self, rng):
        init_rng, data_rng, train_rng = rng.split(3)
        model = SoftmaxClassifier.initialize(4, 3, init_rng)
        gen = data_rng.generator
        x = gen.standard_normal((200, 4))
        y = gen.integers(0, 3, 200)
        # well-separated clusters: shift by 3x the class direction
        x += np.eye(4)[:3][y] * 3
        before = model.accuracy(x, y)
        model.train_soft(x, np.eye(3)[y], epochs=10, batch_size=16, learning_rate=0.5,
                         rng=train_rng)
        assert model.accuracy(x, y) > max(before, 0.95)

    def test_divergence_detected(self, rng):
        init_rng, train_rng = rng.split(2)
        model = SoftmaxClassifier.initialize(4, 3, init_rng)
        x = np.random.default_rng(0).standard_normal((32, 4)) * 10
        t = np.eye(3)[np.random.default_rng(1).integers(0, 3, 32)]
        with pytest.raises(Divergence):
            model.train_soft(x, t, epochs=50, batch_size=4, learning_rate=1e12, rng=train_rng)

    def test_same_seed_identical_weights(self):
        def train(seed):
            root = RandomSource(seed)
            init_rng, train_rng = root.split(2)
            model = SoftmaxClassifier.initialize(5, 3, init_rng)
            gen = np.random.default_rng(9)
            x = gen.standard_normal((64, 5))
            y = gen.integers(0, 3, 64)
            model.train_soft(x, np.eye(3)[y], 3, 8, 0.2, train_rng)
            return model

        a, b = train(4), train(4)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


class TestLockstepSgd:
    """``train_lockstep`` against the per-model loop it replaced: weights,
    biases and per-epoch losses are bit-identical for every model."""

    D, K = 6, 4

    def problem(self, c, n, seed=0):
        gen = np.random.default_rng(seed)
        weights = 0.1 * gen.standard_normal((c, self.D, self.K))
        bias = 0.1 * gen.standard_normal((c, self.K))
        x = gen.standard_normal((c, n, self.D))
        targets = gen.dirichlet(np.full(self.K, 0.5), size=(c, n))
        # one-hot rows too, whose zero entries take the other KL branch
        targets[:, ::2] = np.eye(self.K)[targets[:, ::2].argmax(axis=-1)]
        return weights, bias, x, targets

    @pytest.mark.parametrize("c", [1, 3, 10])
    @pytest.mark.parametrize(
        "n, batch_size, epochs",
        [(64, 8, 3), (1333, 4, 2), (20, 32, 3), (20, 10**12, 2), (64, 8, 0)],
        ids=["divides", "ragged", "batch-above-shard", "huge-batch", "zero-epochs"],
    )
    def test_matches_reference_loop(self, c, n, batch_size, epochs):
        weights, bias, x, targets = self.problem(c, n)
        fast_w, fast_b = weights.copy(), bias.copy()
        losses = train_lockstep(fast_w, fast_b, x, targets, epochs, batch_size, 0.7,
                                RandomSource(5).split(c))
        assert losses.shape == (epochs, c)
        for i, rng in enumerate(RandomSource(5).split(c)):
            model = SoftmaxClassifier(weights[i], bias[i])
            ref = reference_sgd(model, x[i], targets[i], epochs, batch_size, 0.7, rng)
            assert np.array_equal(fast_w[i], model.weights)
            assert np.array_equal(fast_b[i], model.bias)
            assert losses[:, i].tolist() == ref
        assert epochs == 0 or not np.array_equal(fast_w, weights)

    def test_train_soft_is_the_one_model_case(self):
        weights, bias, x, targets = self.problem(1, 50)
        model = SoftmaxClassifier(weights[0], bias[0])
        losses = model.train_soft(x[0], targets[0], 3, 8, 0.7, RandomSource(6))
        ref_model = SoftmaxClassifier(weights[0], bias[0])
        ref = reference_sgd(ref_model, x[0], targets[0], 3, 8, 0.7, RandomSource(6))
        assert losses == ref
        assert np.array_equal(model.weights, ref_model.weights)
        assert np.array_equal(model.bias, ref_model.bias)

    def test_batch_size_below_one_is_rejected(self):
        weights, bias, x, targets = self.problem(1, 20)
        model = SoftmaxClassifier(weights[0], bias[0])
        with pytest.raises(ValueError, match="batch_size must be an integer >= 1, got 0"):
            model.train_soft(x[0], targets[0], 2, 0, 0.7, RandomSource(6))
        # and epochs -1, which raised numpy's "negative dimensions are not
        # allowed" (0 stays valid: the zero-epochs reference cases)
        with pytest.raises(ValueError, match="epochs must be an integer >= 0, got -1"):
            model.train_soft(x[0], targets[0], -1, 4, 0.7, RandomSource(6))
        assert np.array_equal(model.weights, weights[0])

    @pytest.mark.parametrize("entry", ["train_lockstep", "train_soft"])
    @pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, -1.0])
    def test_learning_rate_must_be_positive_and_finite(self, rate, entry):
        # inf let a matmul RuntimeWarning escape, nan raised Divergence after a
        # full epoch, and 0 and -1 trained silently
        weights, bias, x, targets = self.problem(1, 8)
        model = SoftmaxClassifier(weights[0], bias[0])
        message = f"learning_rate must be positive and finite, got {rate}"
        with pytest.raises(ValueError, match=message):
            if entry == "train_soft":
                model.train_soft(x[0], targets[0], 1, 4, rate, RandomSource(6))
            else:
                train_lockstep(model.weights[None], model.bias[None], x, targets, 1, 4, rate,
                               [RandomSource(6)])
        assert np.array_equal(model.weights, weights[0])

    def test_targets_not_matching_x_are_rejected(self):
        # (3, K) targets for 4 samples raised numpy's reshape error
        weights, bias, x, targets = self.problem(2, 4)
        model = SoftmaxClassifier(weights[0], bias[0])
        with pytest.raises(ValueError, match=r"targets shape \(1, 3, 4\) is not .* \(1, 4, 4\)"):
            model.train_soft(x[0], targets[0, :3], 2, 2, 0.7, RandomSource(6))
        for bad in (targets[:1], targets[..., :3]):
            with pytest.raises(ValueError, match="targets shape"):
                train_lockstep(weights, bias, x, bad, 2, 2, 0.7, [RandomSource(6)] * 2)
        assert np.array_equal(model.weights, weights[0])

    @pytest.mark.parametrize("weights, bias, x, name", [
        ((1, 3, 2), (1, 2), (1, 4, 5), "weights"),  # d = 3 against 5: matmul's core dimension
        ((1, 3, 2), (1, 3), (1, 4, 3), "bias"),  # K = 3 against 2: a concatenation error
        ((2, 3, 2), (2, 2), (1, 4, 3), "weights"),  # C = 2 against 1: non-broadcastable output
        ((3, 2), (2,), (4,), "x"),  # train_soft on a 1-D x: "not enough values to unpack"
    ])
    def test_model_shapes_must_match_x(self, weights, bias, x, name):
        # each raised numpy's error from inside the step, naming no argument
        w, b, x = np.zeros(weights), np.zeros(bias), np.ones(x)
        with pytest.raises(ValueError, match=rf"^{name} shape "):
            if x.ndim == 1:
                SoftmaxClassifier(w, b).train_soft(x, np.full((4, 2), 0.5), 1, 2, 0.1,
                                                   RandomSource(0))
            else:
                train_lockstep(w, b, x, np.full((1, 4, 2), 0.5), 1, 2, 0.1, [RandomSource(0)])

    @pytest.mark.parametrize("entry", ["train_lockstep", "train_soft", "kl_loss"])
    @pytest.mark.parametrize("where, value, reason", [
        (np.s_[...], np.nan, "entries and row totals must be finite"),
        (np.s_[0, 3], np.nan, "entries and row totals must be finite"),
        (np.s_[0, 3], [np.inf, 0, 0, 0], "entries and row totals must be finite"),
        (np.s_[0, 3], [1.5, -0.5, 0, 0], "negative probability -0.5"),
        (np.s_[0, 3], [2.0, 2.0, 0, 0], "entries sum to 4.0, expected 1.0"),
    ], ids=["all-nan", "nan-row", "inf", "negative", "unnormalized"])
    def test_targets_must_be_probability_rows(self, where, value, reason, entry):
        # all-nan targets trained silently into nan weights (their KL terms
        # were zero-filled) and read a kl_loss of 0.0; one nan row raised
        # Divergence only after a full epoch; the others trained silently
        weights, bias, x, targets = self.problem(1, 8)
        targets[where] = value
        model = SoftmaxClassifier(weights[0], bias[0])
        with pytest.raises(ValueError, match=rf"^targets: {re.escape(reason)}$"):
            if entry == "kl_loss":
                model.kl_loss(x[0], targets[0])
            elif entry == "train_soft":
                model.train_soft(x[0], targets[0], 1, 4, 0.7, RandomSource(6))
            else:
                train_lockstep(model.weights[None], model.bias[None], x, targets, 1, 4, 0.7,
                               [RandomSource(6)])
        assert np.array_equal(model.weights, weights[0])

    @pytest.mark.parametrize("streams", [1, 3])
    def test_one_stream_per_model(self, streams):
        # one stream for two models shuffled both alike, and three raised
        # numpy's broadcast error, which named no argument
        weights, bias, x, targets = self.problem(2, 8)
        before = weights.copy()
        with pytest.raises(ValueError, match=rf"^rngs needs one stream per model, got {streams} "
                                             "for 2 models$"):
            train_lockstep(weights, bias, x, targets, 1, 4, 0.7, RandomSource(6).split(streams))
        assert np.array_equal(weights, before)

    def test_one_diverging_model_raises(self):
        weights, bias, x, targets = self.problem(3, 32)
        x[2] *= 10  # only this shard runs away at lr 30

        def alone(i):
            model = SoftmaxClassifier(weights[i], bias[i])
            return reference_sgd(model, x[i], targets[i], 50, 4, 30.0, RandomSource(i))

        alone(0), alone(1)
        with pytest.raises(Divergence):
            alone(2)
        with pytest.raises(Divergence):
            train_lockstep(weights, bias, x, targets, 50, 4, 30.0,
                           [RandomSource(i) for i in range(3)])

    def test_caller_views_hold_the_diverged_epoch(self):
        # train_soft hands over views of the model's arrays; they are written
        # at the end of every epoch, so after Divergence (at epoch 3 here) they
        # hold the epoch that diverged, as the per-step reference leaves them
        weights, bias, x, targets = self.problem(3, 32)
        x, targets = 2 * x[2:], targets[2:]
        model = SoftmaxClassifier(weights[2], bias[2])
        ref = SoftmaxClassifier(weights[2], bias[2])
        with pytest.raises(Divergence):
            train_lockstep(model.weights[None], model.bias[None], x, targets, 50, 4, 30.0,
                           [RandomSource(2)])
        with pytest.raises(Divergence):
            reference_sgd(ref, x[0], targets[0], 50, 4, 30.0, RandomSource(2))
        assert not np.array_equal(model.weights, weights[2])
        assert np.array_equal(model.weights, ref.weights, equal_nan=True)
        assert np.array_equal(model.bias, ref.bias, equal_nan=True)

    def test_pretrain_clients_matches_reference_loop(self):
        cfg = FdProtocolConfig(clients=3, pretrain_epochs=2, batch_size=4, learning_rate=1.0)
        data_rng, pre_rng = RandomSource(7).split(2)
        split = split_dataset(cfg, data_rng)
        clients = pretrain_clients(cfg, split, pre_rng)
        streams = RandomSource(7).split(2)[1].split(2 * cfg.clients)
        for i, model in enumerate(clients):
            ref = SoftmaxClassifier.initialize(16, 10, streams[2 * i])
            reference_sgd(ref, split.client_features[i], np.eye(10)[split.client_labels[i]],
                          2, 4, 1.0, streams[2 * i + 1])
            assert np.array_equal(model.weights, ref.weights)
            assert np.array_equal(model.bias, ref.bias)


class TestFdSetup:
    """One setup per seed serves every distillation config: distilling from
    it gives exactly ``run_fd``, and a config that changes what the setup
    built is refused."""

    BASE = FdProtocolConfig(
        clients=2, private_size=200, open_size=200, unlabeled_budget=32, pretrain_epochs=2,
        distill_epochs=2, batch_size=8, data=DatasetSpec(size=500),
    )

    @pytest.mark.parametrize("aggregation", list(Aggregation), ids=lambda a: a.value)
    def test_distill_equals_run_fd(self, aggregation):
        setup = FdSetup.build(self.BASE, seed=3)
        # S = 1 again last: the distillation stream is derived afresh per call
        for s in (1, 4, 16, 1):
            cfg = replace(self.BASE, aggregation=aggregation, unlabeled_budget=32 // s,
                          round=replace(self.BASE.round, reps=s))
            assert setup.distill(cfg) == run_fd(cfg, seed=3)

    @pytest.mark.parametrize(
        "change",
        [dict(data=DatasetSpec(size=600)), dict(clients=3), dict(private_size=210),
         dict(open_size=210), dict(pretrain_epochs=3), dict(batch_size=4),
         dict(learning_rate=0.25)],
        ids=lambda change: next(iter(change)),
    )
    def test_setup_field_change_is_refused(self, change):
        setup = FdSetup.build(self.BASE, seed=0)
        with pytest.raises(ValueError, match=next(iter(change))):
            setup.distill(replace(self.BASE, **change))

    def test_arrays_are_read_only(self):
        setup = FdSetup.build(self.BASE, seed=0)
        models = (*setup.clients, setup.server)
        arrays = [*vars(setup.split).values()] + [a for m in models for a in (m.weights, m.bias)]
        assert len(arrays) == 5 + 2 * (self.BASE.clients + 1)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


class TestPretraining:
    def test_clients_reach_90_percent_on_private_split(self):
        cfg = FdProtocolConfig()
        root = RandomSource(0)
        data_rng, pre_rng = root.split(2)
        split = split_dataset(cfg, data_rng)
        clients = pretrain_clients(cfg, split, pre_rng)
        for model, x, y in zip(clients, split.client_features, split.client_labels):
            assert model.accuracy(x, y) >= 0.90

    def test_single_client_separated_clusters(self):
        cfg = replace(FdProtocolConfig(), clients=1, data=DatasetSpec(noise_std=0.1))
        root = RandomSource(1)
        data_rng, pre_rng = root.split(2)
        split = split_dataset(cfg, data_rng)
        clients = pretrain_clients(cfg, split, pre_rng)
        assert clients[0].accuracy(split.client_features[0], split.client_labels[0]) >= 0.99

    def test_zero_epochs_is_chance_level(self):
        cfg = replace(FdProtocolConfig(), pretrain_epochs=0)
        root = RandomSource(2)
        data_rng, pre_rng = root.split(2)
        split = split_dataset(cfg, data_rng)
        clients = pretrain_clients(cfg, split, pre_rng)
        acc = clients[0].accuracy(split.client_features[0], split.client_labels[0])
        assert acc < 0.3  # K = 10, random init


class TestSplit:
    def test_sizes(self):
        cfg = FdProtocolConfig(clients=5, private_size=4000, open_size=4000)
        split = split_dataset(cfg, RandomSource(0))
        assert len(split.client_features) == 5
        assert all(x.shape[0] == 800 for x in split.client_features)
        assert split.open_features.shape[0] == 4000
        assert split.test_features.shape[0] == 2000

    def test_config_validation(self):
        with pytest.raises(ValueError, match="unlabeled_budget must be an integer >= 1, got 0"):
            FdProtocolConfig(unlabeled_budget=0)
        with pytest.raises(ValueError):
            FdProtocolConfig(unlabeled_budget=5000, open_size=4000)
        with pytest.raises(ValueError):
            FdProtocolConfig(private_size=9000, open_size=4000)

    def test_round_settings_must_agree(self):
        # fd takes the class count from data (a disagreeing round value used to
        # be dropped), and the reference slot and noise power from aggregation
        # and snr_db alone, so a round value of those is rejected
        with pytest.raises(ValueError, match="num_classes"):
            FdProtocolConfig(round=RoundConfig(num_classes=3))
        with pytest.raises(ValueError, match="use_reference_re"):
            FdProtocolConfig(round=RoundConfig(num_classes=10, use_reference_re=True))
        with pytest.raises(ValueError, match="noise_var"):
            FdProtocolConfig(round=RoundConfig(num_classes=10, noise_var=7.0))
        with pytest.raises(ValueError, match="use_reference_re"):
            FdProtocolConfig(
                aggregation="ratio", round=RoundConfig(num_classes=10, use_reference_re=True)
            )
        with pytest.raises(ValueError, match="noise_var"):
            FdProtocolConfig(snr_db=None, round=RoundConfig(num_classes=10, noise_var=7.0))

    @pytest.mark.parametrize("lo_hi", [(-0.2, 1.5), (0.0, 1.0), (1.5, 0.5)])
    def test_power_cap_range_checked(self, lo_hi):
        with pytest.raises(ValueError, match="power_cap_range"):
            FdProtocolConfig(power_cap_range=lo_hi)

    @pytest.mark.parametrize("path", ["configs/fd.json", "perfbench/configs/fd_budget.json"])
    def test_shipped_configs_load(self, path):
        assert isinstance(load_config(str(ROOT / path), "fd"), FdProtocolConfig)


class TestAggregateTargets:
    """One batched channel call per distillation round, checked against the
    per-sample single-round path under the frozen closed form."""

    U = 48

    @staticmethod
    def inputs(aggregation):
        # miscalibrated devices and peaked labels, so projection clips entries
        pop = DevicePopulation(
            [0.2, 0.3, 0.5], [0.6, 1.0, 1.7], [2.0, 0.4, 1.7], [1.0, 1.0, 1.0]
        )
        u = TestAggregateTargets.U
        probs = np.random.default_rng(8).dirichlet(np.full(5, 0.2), size=(3, u))
        ratio = aggregation is Aggregation.RATIO
        cfg = FdProtocolConfig(aggregation=aggregation, snr_db=None,
                               round=RoundConfig(num_classes=5), data=DatasetSpec(num_classes=5))
        round_cfg = RoundConfig(num_classes=5, reps=2, antennas=3, rho=0.9,
                                use_reference_re=ratio)
        return cfg, probs, pop, round_cfg

    @pytest.mark.parametrize("aggregation", [Aggregation.SCENE, Aggregation.RATIO])
    def test_matches_per_sample_estimates(self, aggregation, monkeypatch):
        cfg, probs, pop, round_cfg = self.inputs(aggregation)
        monkeypatch.setattr(scene_sim.fd, "simulate_rounds", frozen_round)
        targets, plain = aggregate_targets(cfg, probs, pop, round_cfg, RandomSource(0))
        for j in range(self.U):
            labels = [SoftLabel(probs[i, j]) for i in range(3)]
            frame = map_energies(labels, pop, round_cfg.rho)
            y, y_ref = frozen_round(frame, pop, round_cfg)
            if aggregation is Aggregation.RATIO:
                _, expected = ratio_estimate(y[0], None if y_ref is None else y_ref[0])
            else:
                _, expected = scene_estimate(y[0], round_cfg)
            assert np.abs(targets[j] - expected).max() <= 1e-12
        # the mismatch moves the targets off plain; scene also clips entries
        assert np.abs(targets - plain).max() > 0.05
        assert aggregation is Aggregation.RATIO or np.any(targets == 0.0)

    def test_one_kernel_call_per_round(self, monkeypatch):
        cfg, probs, pop, round_cfg = self.inputs(Aggregation.SCENE)
        calls = []

        def counting(energies, pop, cfg, rng, trials):
            calls.append((energies.energies.shape, trials))
            return frozen_round(energies, pop, cfg, rng, trials)

        monkeypatch.setattr(scene_sim.fd, "simulate_rounds", counting)
        aggregate_targets(cfg, probs, pop, round_cfg, RandomSource(0))
        assert calls == [((self.U, 3, 5), self.U)]


class TestOneShotDistill:
    def test_exact_transport_matches_plain(self, monkeypatch):
        # frozen fading + zero noise: the OTA path reproduces the noise-free
        # average, so targets and final accuracy coincide with Plain
        common = dict(
            unlabeled_budget=64,
            snr_db=None,
            round=RoundConfig(num_classes=10, reps=2, antennas=1, noise_var=0.0),
        )
        plain = run_fd(FdProtocolConfig(aggregation=Aggregation.PLAIN, **common), seed=11)
        monkeypatch.setattr(scene_sim.fd, "simulate_rounds", frozen_round)
        scene = run_fd(FdProtocolConfig(aggregation=Aggregation.SCENE, **common), seed=11)
        assert scene.agg_l2_error < 1e-9
        assert scene.server_accuracy == plain.server_accuracy

    def test_round_correlation_reaches_channel(self):
        # the AR(1) coefficients of fd.round are honoured, not dropped
        base = FdProtocolConfig(unlabeled_budget=32, pretrain_epochs=2, distill_epochs=2)
        runs = [
            run_fd(replace(base, round=replace(base.round, **corr)), seed=4)
            for corr in ({}, {"time_corr": 0.9})
        ]
        assert runs[0].agg_l2_error != runs[1].agg_l2_error

    def test_amplitude_underflow_is_loud(self):
        # at a fixed rho of 1e-100 every float32 amplitude is 0: the run used
        # to distill on uniform targets and report chance-level accuracy
        cfg = replace(TestFdSetup.BASE, rho_rule="fixed",
                      round=RoundConfig(num_classes=10, rho=1e-100))
        with pytest.raises(ValueError, match="underflow"):
            run_fd(cfg, seed=3)

    def test_ratio_transport_runs(self):
        cfg = FdProtocolConfig(aggregation="ratio", unlabeled_budget=32, snr_db=10.0)
        metrics = run_fd(cfg, seed=5)
        assert 0.0 <= metrics.server_accuracy <= 1.0
        assert metrics.agg_l2_error > 0

    def test_deterministic_given_seed(self):
        cfg = FdProtocolConfig(unlabeled_budget=32)
        a = run_fd(cfg, seed=21)
        b = run_fd(cfg, seed=21)
        assert a == b

    def test_kl_loss_nonincreasing_default_step(self):
        ok = 0
        for seed in range(10):
            metrics = run_fd(FdProtocolConfig(unlabeled_budget=128), seed=seed)
            kl = np.array(metrics.kl_per_epoch)
            ok += bool(np.all(np.diff(kl) <= 1e-9))
        assert ok >= 9  # >= 95% of seeds holds at larger samples; 10 here

    def test_aggregation_error_decreases_with_sm(self):
        errs = []
        for sm in (1, 4, 16):
            cfg = FdProtocolConfig(
                unlabeled_budget=48,
                round=RoundConfig(num_classes=10, reps=sm, antennas=1),
            )
            errs.append(run_fd(cfg, seed=3).agg_l2_error)
        assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("snr_db, noise_var, row", [
    (None, 0.0, "1,64,3,2,,ratio,0.10000000000000001,0.33333333333333331,7"),
    (-2.5, 0.0, "1,64,3,2,-2.5,ratio,0.10000000000000001,0.33333333333333331,7"),
])
def test_fd_csv_row_bytes(snr_db, noise_var, row):
    # U, S and M come from the config; a null snr_db is an empty cell, and
    # floats take 17 significant digits
    cfg = FdProtocolConfig(unlabeled_budget=64, aggregation="ratio", snr_db=snr_db,
                           round=RoundConfig(num_classes=10, reps=3, antennas=2,
                                             noise_var=noise_var))
    assert fd_csv_row(FdMetrics(0.1, 1 / 3, (0.5,), cfg), seed=7) == row

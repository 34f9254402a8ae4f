"""Toy-scale one-shot federated distillation loop using the over-the-air
aggregation primitive as its transport.

A synthetic Gaussian-cluster dataset and linear softmax classifiers stand in
for an image benchmark; the point is the aggregation behavior (repetition
sweet spot, S*M invariance, gap to noise-free averaging), not absolute
accuracy numbers. :func:`split_dataset` generates the data of a config's
``DatasetSpec`` and carves it in one call, so data and config always agree.
Clients pretrain in lockstep, one SGD over a leading model axis, with
outputs bit-identical to training each alone; the server's distillation is
the one-model case of the same function. An :class:`FdSetup`
holds everything built before distillation, so a study over distillation
settings pretrains once per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .channel import PathlossModel, simulate_rounds
from .core import (
    DevicePopulation,
    RandomSource,
    RhoRule,
    RoundConfig,
    check_count,
    check_range,
    check_simplex,
    coerce_settings,
    csv_cell,
)
from .estimators import ratio_estimate, scene_estimate
from .montecarlo import PopulationSpec
from .power import check_noise, map_energies, resolve_round

FD_CSV_HEADER = "round,U,S,M,snr_db,aggregation,server_acc,agg_l2_err,seed"


class Divergence(RuntimeError):
    """Training loss became non-finite."""


class Aggregation(Enum):
    """How client soft labels reach the server: the noise-free weighted
    average, or over the air with the self-centering or the ratio estimator."""

    PLAIN = "plain"
    SCENE = "scene"
    RATIO = "ratio"


@dataclass(frozen=True)
class DatasetSpec:
    """Synthetic data generator parameters."""

    num_classes: int = 10
    dim: int = 16
    size: int = 10_000
    noise_std: float = 0.3

    def __post_init__(self) -> None:
        check_count(2, num_classes=self.num_classes)
        check_count(1, dim=self.dim, size=self.size)
        if not 0 <= self.noise_std < np.inf:
            raise ValueError(f"noise_std must be >= 0 and finite, got {self.noise_std}")


@dataclass(frozen=True, eq=False)
class SyntheticDataset:
    """Balanced Gaussian clusters with unit-norm means.

    For K <= d the means are orthonormal basis vectors (pairwise equiangular);
    otherwise random unit directions. Class counts differ by at most one and
    regeneration with the same seed is bit-identical.
    """

    features: np.ndarray
    labels: np.ndarray
    means: np.ndarray

    @classmethod
    def generate(cls, rng: RandomSource, spec: DatasetSpec) -> "SyntheticDataset":
        k, dim, size = spec.num_classes, spec.dim, spec.size
        gen = rng.generator
        if k <= dim:
            means = np.eye(dim)[:k]
        else:
            means = gen.standard_normal((k, dim))
            means /= np.linalg.norm(means, axis=1, keepdims=True)
        base = size // k
        extra = size % k
        counts = [base + (1 if c < extra else 0) for c in range(k)]
        labels = np.repeat(np.arange(k), counts)
        labels = labels[gen.permutation(size)]
        features = means[labels] + spec.noise_std * gen.standard_normal((size, dim))
        return cls(features, labels, means)


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place in ``scores``."""
    np.subtract(scores, np.maximum.reduce(scores, axis=-1, keepdims=True), out=scores)
    np.exp(scores, out=scores)
    return np.divide(scores, np.add.reduce(scores, axis=-1, keepdims=True), out=scores)


def _entropy_term(t: np.ndarray) -> np.ndarray:
    """Elementwise t log t of the targets, 0 where t = 0: the part of the KL
    loss that does not depend on the model."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(t > 0, t * np.log(np.where(t > 0, t, 1.0)), 0.0)


def _mean_kl(probs: np.ndarray, t: np.ndarray, entropy_term: np.ndarray) -> np.ndarray:
    """Mean KL(target || prediction) over the sample axis, one per model, given
    ``_entropy_term(t)``; zero target entries contribute 0. Overwrites
    ``probs``. Infinite when a model puts exactly zero probability on a
    supported class, which is how runaway training manifests."""
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(probs, out=probs)
        np.multiply(t, probs, out=probs)
    np.copyto(probs, 0.0, where=~(t > 0))
    return np.subtract(entropy_term, probs, out=probs).sum(axis=-1).mean(axis=-1)


def _check_targets(targets: np.ndarray) -> None:
    """Raise ``targets: <reason>`` unless :func:`core.check_simplex` passes
    every row of ``targets``."""
    try:
        check_simplex(targets)
    except ValueError as exc:
        raise ValueError(f"targets: {exc}") from None


def train_lockstep(
    weights: np.ndarray, bias: np.ndarray, x: np.ndarray, targets: np.ndarray,
    epochs: int, batch_size: int, learning_rate: float, rngs: list[RandomSource],
) -> np.ndarray:
    """Mini-batch SGD on the KL loss for C linear softmax models at once.

    Model i has weights[i] (d, K) and bias[i] (K,), trains on x[i] (n, d)
    against targets[i] (n, K) and shuffles each epoch with rngs[i]. Each step
    is one batched matmul over the model axis, and every model sees the
    arithmetic it would see trained alone. The gradient of the mean KL w.r.t.
    the scores is (softmax - target)/B, the same as cross-entropy with soft
    targets. Every target row must be a probability vector, and ``rngs`` must
    hold one stream per model. Returns the (epochs, C) end-of-epoch losses;
    raises Divergence as soon as any model's loss is non-finite.

    Steps are bound by numpy call overhead, so they run on buffers reused for
    the whole call: weights and bias are one (C, d+1, K) block, and one
    matmul of the epoch's shuffled ``[x | 1]``, transposed, with the score
    gradient gives the gradient of both. The epoch loss reuses a buffer and
    the targets' entropy term. ``weights`` and ``bias`` (views too) receive
    the block at the end of every epoch, so after Divergence they hold the
    epoch that diverged.
    """
    check_count(1, batch_size=batch_size)
    check_count(0, epochs=epochs)
    if not 0 < learning_rate < np.inf:
        raise ValueError(f"learning_rate must be positive and finite, got {learning_rate}")
    c, n, d = x.shape
    k = weights.shape[-1]
    if targets.shape != (c, n, k):
        raise ValueError(f"targets shape {targets.shape} is not (C, n, K) = {(c, n, k)} of x")
    _check_targets(targets)
    if len(rngs) != c:
        raise ValueError(f"rngs needs one stream per model, got {len(rngs)} for {c} models")
    gens = [r.generator for r in rngs]
    params = np.concatenate([weights, bias[:, None]], axis=1)
    w, b = params[:, :d], params[:, d:]
    flat_x = np.concatenate([x, np.ones((c, n, 1))], axis=2).reshape(c * n, d + 1)
    flat_t = targets.reshape(c * n, k)
    entropy = _entropy_term(targets)
    xs, ts, probs = np.empty((c, n, d + 1)), np.empty((c, n, k)), np.empty((c, n, k))
    bs = max(min(batch_size, n), 1)  # an empty shard runs no step
    scores, row, grad = np.empty((c, bs, k)), np.empty((c, bs, 1)), np.empty_like(params)

    def buffers(size):
        # a batch's scores and per-row buffer (row max, then row sum), the
        # latter also as the 2-D view the reductions write (cheaper than
        # keepdims), and the divisor as a 0-d array (cheaper than a float)
        return scores[:, :size], row[:, :size], row[:, :size, 0], np.array(size, float)

    # Every batch's views and buffers, made once per call (full batches share
    # theirs). The gradient's left operand stays a transposed view: BLAS sums
    # a contiguous transposed copy in another order, which changes the bits.
    full = buffers(bs)
    batches = [(xs[:, lo:lo + bs, :d], xs[:, lo:lo + bs].transpose(0, 2, 1), ts[:, lo:lo + bs],
                *(full if lo + bs <= n else buffers(n - lo))) for lo in range(0, n, bs)]
    lr = np.array(learning_rate, float)
    offsets = np.arange(c)[:, None] * n
    matmul, add, subtract, divide, multiply, exp = (
        np.matmul, np.add, np.subtract, np.divide, np.multiply, np.exp
    )
    max_rows, sum_rows = np.maximum.reduce, np.add.reduce
    losses = np.empty((epochs, c))
    for epoch in range(epochs):
        order = np.stack([gen.permutation(n) for gen in gens]) + offsets
        # order is a permutation, so "clip" never clips; unlike "raise" it
        # gathers straight into the buffer
        np.take(flat_x, order, axis=0, out=xs, mode="clip")
        np.take(flat_t, order, axis=0, out=ts, mode="clip")
        # the step, with outputs passed positionally (cheaper than out=)
        for xb, xtb, tb, s, m, m_rows, size in batches:
            matmul(xb, w, s)
            add(s, b, s)
            max_rows(s, 2, None, m_rows)
            subtract(s, m, s)
            exp(s, s)
            sum_rows(s, 2, None, m_rows)
            divide(s, m, s)
            subtract(s, tb, s)
            divide(s, size, s)
            matmul(xtb, s, grad)
            multiply(grad, lr, grad)
            subtract(params, grad, params)
        np.copyto(weights, w)
        np.copyto(bias, b[:, 0])
        np.add(np.matmul(x, weights, out=probs), bias[:, None], out=probs)
        losses[epoch] = loss = _mean_kl(_softmax(probs), targets, entropy)
        if not np.isfinite(loss).all():
            raise Divergence(f"losses became {loss} (lr={learning_rate}, batch={batch_size})")
    return losses


class SoftmaxClassifier:
    """Linear classifier with softmax outputs.

    Trained by mini-batch SGD on the KL divergence from target distributions
    to predictions; with one-hot targets this is plain cross-entropy.
    """

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        self.weights = np.array(weights, dtype=np.float64)
        self.bias = np.array(bias, dtype=np.float64)

    @classmethod
    def initialize(cls, dim: int, num_classes: int, rng: RandomSource):
        """Weights drawn N(0, 0.01^2) from ``rng``, zero bias."""
        check_count(1, dim=dim)
        check_count(2, num_classes=num_classes)
        return cls(0.01 * rng.generator.standard_normal((dim, num_classes)), np.zeros(num_classes))

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return _softmax(x @ self.weights + self.bias)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        pred = self.predict_proba(x).argmax(axis=1)
        return float((pred == y).mean())

    def kl_loss(self, x: np.ndarray, targets: np.ndarray) -> float:
        """Mean KL(target || prediction) over probability-vector target rows;
        infinite once training ran away."""
        t = np.asarray(targets)
        _check_targets(t)
        return float(_mean_kl(self.predict_proba(x), t, _entropy_term(t)))

    def train_soft(
        self, x: np.ndarray, targets: np.ndarray, epochs: int, batch_size: int,
        learning_rate: float, rng: RandomSource,
    ) -> list[float]:
        """SGD on the KL loss, the one-model case of :func:`train_lockstep`;
        returns the loss at the end of each epoch."""
        losses = train_lockstep(
            self.weights[None], self.bias[None], x[None], np.asarray(targets)[None],
            epochs, batch_size, learning_rate, [rng],
        )
        return losses[:, 0].tolist()


@dataclass(frozen=True)
class FdProtocolConfig:
    """One-shot distillation protocol parameters.

    ``private_size`` examples are split evenly across clients for supervised
    pretraining, ``open_size`` form the shared unlabeled pool, and whatever
    remains is the test set. ``unlabeled_budget`` samples are drawn from the
    open pool each round; each is aggregated over one OTA round (K slots x S
    repetitions), so the airtime budget scales with U * S at M = 1.
    ``snr_db`` None is noise-free, and ``aggregation`` alone sets the
    reference slot.
    """

    clients: int = 5
    private_size: int = 4000
    open_size: int = 4000
    unlabeled_budget: int = 256
    pretrain_epochs: int = 20
    distill_epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 0.5
    aggregation: Aggregation = Aggregation.SCENE
    round: RoundConfig = field(
        default_factory=lambda: RoundConfig(num_classes=10, reps=4, antennas=1)
    )
    snr_db: float | None = 5.0
    rho_rule: RhoRule = RhoRule.MIN_RHO
    pathloss: PathlossModel = field(default_factory=PathlossModel)
    power_cap_range: tuple[float, float] = (0.5, 1.5)
    data: DatasetSpec = field(default_factory=DatasetSpec)

    def __post_init__(self) -> None:
        coerce_settings(self, aggregation=Aggregation, rho_rule=RhoRule)
        check_count(1, clients=self.clients, unlabeled_budget=self.unlabeled_budget,
                    batch_size=self.batch_size, private_size=self.private_size,
                    open_size=self.open_size)
        check_count(0, pretrain_epochs=self.pretrain_epochs, distill_epochs=self.distill_epochs)
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.unlabeled_budget > self.open_size:
            raise ValueError("unlabeled budget exceeds the open pool")
        if self.private_size < self.clients:
            raise ValueError(f"need private_size >= clients, got {self.private_size}, "
                             f"{self.clients}")
        if self.private_size + self.open_size >= self.data.size:
            raise ValueError("private_size + open_size leaves no test sample in data.size")
        check_range(power_cap_range=self.power_cap_range)
        # The run sets the round's class count from data and its rho under
        # min_rho, and its noise power and reference slot from snr_db and
        # aggregation alone; a round value it would drop is an error.
        if self.round.num_classes != self.data.num_classes:
            raise ValueError(
                f"round.num_classes {self.round.num_classes} differs from "
                f"data.num_classes {self.data.num_classes}"
            )
        if self.round.noise_var != 0.0 or self.round.use_reference_re:
            raise ValueError(f"round.noise_var {self.round.noise_var} and round.use_reference_re "
                             f"{self.round.use_reference_re}: snr_db and aggregation set them")
        if self.rho_rule is RhoRule.MIN_RHO and self.round.rho != RoundConfig.rho:
            raise ValueError(f"round.rho {self.round.rho} is read only under rho_rule "
                             "'fixed'; min_rho negotiates rho")
        if self.snr_db is not None:
            check_noise(self.rho_rule, self.round.rho, self.round.num_classes, snr_db=self.snr_db)


@dataclass(frozen=True, eq=False)
class DatasetSplit:
    """Even IID partition of the private set, as (C, n, d) client features and
    (C, n) client labels, plus shared open and test sets."""

    client_features: np.ndarray
    client_labels: np.ndarray
    open_features: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray


def split_dataset(cfg: FdProtocolConfig, rng: RandomSource) -> DatasetSplit:
    """Generate ``cfg.data`` on ``rng`` and carve it into per-client private
    shards, the open pool, and the held-out test set (generation already
    shuffled the samples)."""
    data = SyntheticDataset.generate(rng, cfg.data)
    i_p, i_o = cfg.private_size, cfg.open_size
    per_client = i_p // cfg.clients
    shards = slice(0, cfg.clients * per_client)
    return DatasetSplit(
        client_features=data.features[shards].reshape(cfg.clients, per_client, -1),
        client_labels=data.labels[shards].reshape(cfg.clients, per_client),
        open_features=data.features[i_p : i_p + i_o],
        test_features=data.features[i_p + i_o :],
        test_labels=data.labels[i_p + i_o :],
    )


def pretrain_clients(
    cfg: FdProtocolConfig, split: DatasetSplit, rng: RandomSource
) -> list[SoftmaxClassifier]:
    """Supervised pretraining of one classifier per client on its shard: all
    clients train in lockstep on one-hot targets; client i initializes from
    stream 2i and shuffles with stream 2i+1."""
    x, k = split.client_features, cfg.data.num_classes
    streams = rng.split(2 * cfg.clients)
    inits = [SoftmaxClassifier.initialize(x.shape[2], k, s) for s in streams[0::2]]
    weights = np.stack([m.weights for m in inits])
    bias = np.stack([m.bias for m in inits])
    targets = np.eye(k)[split.client_labels]
    train_lockstep(weights, bias, x, targets, cfg.pretrain_epochs, cfg.batch_size,
                   cfg.learning_rate, streams[1::2])
    return [SoftmaxClassifier(w, b) for w, b in zip(weights, bias)]


@dataclass(frozen=True)
class FdMetrics:
    """Outcome of one distillation round under ``cfg``."""

    server_accuracy: float
    agg_l2_error: float
    kl_per_epoch: tuple[float, ...]
    cfg: FdProtocolConfig


def aggregate_targets(
    cfg: FdProtocolConfig,
    client_probs: np.ndarray,
    pop: DevicePopulation,
    round_cfg: RoundConfig,
    rng: RandomSource,
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate per-sample client predictions into distillation targets.

    ``client_probs`` has shape (N, U, K). Returns (targets, plain) where
    plain is the noise-free weighted average used as the error baseline.
    Each sample is one independent OTA round: the U rounds are one
    (U, N, K) energy frame sent by a single :func:`channel.simulate_rounds`
    call on ``rng``, and the targets are the projected self-centering or
    reference-ratio estimates, the same functions the sweeps use.
    """
    plain = np.einsum("i,iuk->uk", pop.omegas, client_probs)
    if cfg.aggregation is Aggregation.PLAIN:
        return plain, plain
    probs = client_probs.transpose(1, 0, 2)  # (U, N, K): one frame row per sample
    frame = map_energies(probs, pop, round_cfg.rho)
    y, y_ref = simulate_rounds(frame, pop, round_cfg, rng, trials=probs.shape[0])
    if cfg.aggregation is Aggregation.RATIO:
        return ratio_estimate(y, y_ref)[1], plain
    return scene_estimate(y, round_cfg)[1], plain


def one_shot_distill(
    cfg: FdProtocolConfig,
    split: DatasetSplit,
    clients: list[SoftmaxClassifier],
    server: SoftmaxClassifier,
    rng: RandomSource,
) -> FdMetrics:
    """Run the one-shot distillation stage on a copy of ``server``.

    Clients predict soft labels on a random unlabeled subset, the labels are
    aggregated (noise-free average or over the air), and the server minimizes
    the KL divergence to the aggregated targets by SGD.
    """
    u = cfg.unlabeled_budget
    select_rng, pop_rng, channel_rng, train_rng = rng.split(4)
    idx = select_rng.generator.choice(split.open_features.shape[0], u, replace=False)
    x_u = split.open_features[idx]
    client_probs = np.stack([c.predict_proba(x_u) for c in clients])
    # uniform weights: clients hold even IID shards
    pop = PopulationSpec(
        n_devices=cfg.clients, pathloss=cfg.pathloss, power_cap_range=cfg.power_cap_range
    ).draw(pop_rng)
    round_cfg = resolve_round(
        cfg.round, cfg.rho_rule, pop, cfg.snr_db, cfg.aggregation is Aggregation.RATIO
    )
    targets, plain = aggregate_targets(cfg, client_probs, pop, round_cfg, channel_rng)
    agg_err = float(np.linalg.norm(targets - plain, axis=1).mean())

    trained = SoftmaxClassifier(server.weights, server.bias)
    kl = trained.train_soft(
        x_u, targets, cfg.distill_epochs, cfg.batch_size, cfg.learning_rate, train_rng
    )
    accuracy = trained.accuracy(split.test_features, split.test_labels)
    return FdMetrics(accuracy, agg_err, tuple(kl), cfg)


# The config fields that the data, the split, pretraining or the server's
# initial model read; every other field acts only in distillation.
_SETUP_FIELDS = ("data", "clients", "private_size", "open_size", "pretrain_epochs",
                 "batch_size", "learning_rate")


@dataclass(frozen=True, eq=False)
class FdSetup:
    """What :func:`run_fd` builds before distilling at one seed: the split of
    the generated data, the pretrained clients and the server's initial
    model, drawn from streams 0-2 of the seed's root split. No distillation
    setting (U, S, M, SNR, aggregation, distillation epochs) changes it, so
    one setup serves every such config. Its arrays are read-only."""

    cfg: FdProtocolConfig
    seed: int
    split: DatasetSplit
    clients: tuple[SoftmaxClassifier, ...]
    server: SoftmaxClassifier

    @classmethod
    def build(cls, cfg: FdProtocolConfig, seed: int) -> "FdSetup":
        check_count(0, seed=seed)
        data_rng, pretrain_rng, server_rng, _ = RandomSource(seed).split(4)
        split = split_dataset(cfg, data_rng)
        clients = tuple(pretrain_clients(cfg, split, pretrain_rng))
        server = SoftmaxClassifier.initialize(cfg.data.dim, cfg.data.num_classes, server_rng)
        for model in (*clients, server):
            model.weights.flags.writeable = model.bias.flags.writeable = False
        for array in vars(split).values():
            array.flags.writeable = False
        return cls(cfg, seed, split, clients, server)

    def distill(self, cfg: FdProtocolConfig) -> FdMetrics:
        """Distill once under ``cfg``, which must agree with the setup's config
        in every field the setup reads. Runs on stream 3 of the seed's root
        split, derived afresh on every call (``RandomSource.split`` spawns
        statefully), so the result equals ``run_fd(cfg, seed)``."""
        differ = [f for f in _SETUP_FIELDS if getattr(cfg, f) != getattr(self.cfg, f)]
        if differ:
            raise ValueError(f"config differs from the setup's in {', '.join(differ)}")
        distill_rng = RandomSource(self.seed).split(4)[3]
        return one_shot_distill(cfg, self.split, list(self.clients), self.server, distill_rng)


def run_fd(cfg: FdProtocolConfig, seed: int) -> FdMetrics:
    """End-to-end pipeline: generate data, pretrain clients, distill once."""
    return FdSetup.build(cfg, seed).distill(cfg)


def fd_csv_row(metrics: FdMetrics, seed: int) -> str:
    """One row under ``FD_CSV_HEADER``; one-shot distillation is always round 1."""
    cfg = metrics.cfg
    cells = (1, cfg.unlabeled_budget, cfg.round.reps, cfg.round.antennas, cfg.snr_db,
             cfg.aggregation.value, metrics.server_accuracy, metrics.agg_l2_error, seed)
    return ",".join(map(csv_cell, cells))

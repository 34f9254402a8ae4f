"""Toy-scale one-shot federated distillation loop using the over-the-air
aggregation primitive as its transport.

A synthetic Gaussian-cluster dataset and linear softmax classifiers stand in
for an image benchmark; the point is the aggregation behavior (repetition
sweet spot, S*M invariance, gap to noise-free averaging), not absolute
accuracy numbers. Clients pretrain in lockstep, one SGD over a leading model
axis, with outputs bit-identical to training each alone; the server's
distillation is the one-model case of the same function.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .channel import PathlossModel, simulate_rounds
from .core import (
    DevicePopulation,
    RandomSource,
    RhoRule,
    RoundConfig,
    check_range,
    coerce_settings,
)
from .estimators import ratio_estimate, scene_estimate
from .montecarlo import PopulationSpec
from .power import map_energies, resolve_round

FD_CSV_HEADER = "round,U,S,M,snr_db,aggregation,server_acc,agg_l2_err,seed"


class Divergence(RuntimeError):
    """Training loss became non-finite."""


class EmptyBudget(ValueError):
    """No unlabeled samples to distill on."""


class Aggregation(Enum):
    """How client soft labels reach the server: the noise-free weighted
    average, or over the air with the self-centering or the ratio estimator."""

    PLAIN = "plain"
    SCENE = "scene"
    RATIO = "ratio"


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
    noise_std: float

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return self.means.shape[0]

    @classmethod
    def generate(
        cls,
        rng: RandomSource,
        num_classes: int = 10,
        dim: int = 16,
        size: int = 10_000,
        noise_std: float = 0.3,
    ) -> "SyntheticDataset":
        gen = rng.generator
        if num_classes <= dim:
            means = np.eye(dim)[:num_classes]
        else:
            means = gen.standard_normal((num_classes, dim))
            means /= np.linalg.norm(means, axis=1, keepdims=True)
        base = size // num_classes
        extra = size % num_classes
        counts = [base + (1 if c < extra else 0) for c in range(num_classes)]
        labels = np.repeat(np.arange(num_classes), counts)
        labels = labels[gen.permutation(size)]
        features = means[labels] + noise_std * gen.standard_normal((size, dim))
        return cls(features, labels, means, noise_std)


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _mean_kl(probs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Mean KL(target || prediction) over the sample axis, one per model; zero
    target entries contribute 0. Infinite when a model puts exactly zero
    probability on a supported class, which is how runaway training manifests."""
    with np.errstate(divide="ignore", invalid="ignore"):
        entropy_term = np.where(t > 0, t * np.log(np.where(t > 0, t, 1.0)), 0.0)
        cross = np.where(t > 0, t * np.log(probs), 0.0)
    return (entropy_term - cross).sum(axis=-1).mean(axis=-1)


def train_lockstep(
    weights: np.ndarray, bias: np.ndarray, x: np.ndarray, targets: np.ndarray,
    epochs: int, batch_size: int, learning_rate: float, rngs: list[RandomSource],
) -> np.ndarray:
    """Mini-batch SGD on the KL loss for C linear softmax models at once.

    Model i has weights[i] (d, K) and bias[i] (K,), both updated in place,
    trains on x[i] (n, d) against targets[i] (n, K) and shuffles each epoch
    with rngs[i]. Each step is one batched matmul over the model axis, and
    every model sees the arithmetic it would see trained alone. The gradient
    of the mean KL w.r.t. the scores is (softmax - target)/B, the same as
    cross-entropy with soft targets. Returns the (epochs, C) end-of-epoch
    losses; raises Divergence as soon as any model's loss is non-finite.
    """
    gens = [r.generator for r in rngs]
    rows = np.arange(len(gens))[:, None]
    n = x.shape[1]
    losses = np.empty((epochs, len(gens)))
    for epoch in range(epochs):
        order = np.stack([gen.permutation(n) for gen in gens])
        xs, ts = x[rows, order], targets[rows, order]
        for lo in range(0, n, batch_size):
            xb = xs[:, lo : lo + batch_size]
            p = _softmax(xb @ weights + bias[:, None])
            grad_scores = (p - ts[:, lo : lo + batch_size]) / xb.shape[1]
            weights -= learning_rate * (xb.transpose(0, 2, 1) @ grad_scores)
            bias -= learning_rate * grad_scores.sum(axis=1)
        losses[epoch] = loss = _mean_kl(_softmax(x @ weights + bias[:, None]), targets)
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
    def initialize(cls, dim: int, num_classes: int, rng: RandomSource, scale: float = 0.01):
        gen = rng.generator
        return cls(scale * gen.standard_normal((dim, num_classes)), np.zeros(num_classes))

    def copy(self) -> "SoftmaxClassifier":
        return SoftmaxClassifier(self.weights, self.bias)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return _softmax(x @ self.weights + self.bias)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        pred = self.predict_proba(x).argmax(axis=1)
        return float((pred == y).mean())

    def kl_loss(self, x: np.ndarray, targets: np.ndarray) -> float:
        """Mean KL(target || prediction); infinite once training ran away."""
        return float(_mean_kl(self.predict_proba(x), np.asarray(targets)))

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
class DatasetSpec:
    """Synthetic data generator parameters."""

    num_classes: int = 10
    dim: int = 16
    size: int = 10_000
    noise_std: float = 0.3

    def __post_init__(self) -> None:
        if self.dim < 1 or self.noise_std < 0:
            raise ValueError(f"need dim >= 1, noise_std >= 0, got {self.dim}, {self.noise_std}")


@dataclass(frozen=True)
class FdProtocolConfig:
    """One-shot distillation protocol parameters.

    ``private_size`` examples are split evenly across clients for supervised
    pretraining, ``open_size`` form the shared unlabeled pool, and whatever
    remains is the test set. ``unlabeled_budget`` samples are drawn from the
    open pool each round; each is aggregated over one OTA round (K slots x S
    repetitions), so the airtime budget scales with U * S at M = 1.
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
        if self.unlabeled_budget < 1:
            raise EmptyBudget("unlabeled budget must be >= 1")
        if self.unlabeled_budget > self.open_size:
            raise ValueError("unlabeled budget exceeds the open pool")
        if self.private_size + self.open_size > self.data.size:
            raise ValueError("private + open exceeds the dataset size")
        if self.clients < 1:
            raise ValueError("need at least one client")
        if self.batch_size < 1 or not self.learning_rate > 0:
            raise ValueError(f"need batch_size >= 1, learning_rate > 0, got "
                             f"{self.batch_size}, {self.learning_rate}")
        if min(self.pretrain_epochs, self.distill_epochs) < 0:
            raise ValueError(f"need pretrain_epochs, distill_epochs >= 0, got "
                             f"{self.pretrain_epochs}, {self.distill_epochs}")
        check_range(power_cap_range=self.power_cap_range)
        # The run sets the round's class count, reference slot and noise power
        # from data, aggregation and snr_db; a round value that disagrees is
        # an error, not something to drop.
        if self.round.num_classes != self.data.num_classes:
            raise ValueError(
                f"round.num_classes {self.round.num_classes} differs from "
                f"data.num_classes {self.data.num_classes}"
            )
        if self.round.use_reference_re and self.aggregation is not Aggregation.RATIO:
            raise ValueError(
                "round.use_reference_re needs aggregation 'ratio', "
                f"got {self.aggregation.value!r}"
            )
        if self.round.noise_var != 0.0 and self.snr_db is not None:
            raise ValueError("give round.noise_var or snr_db, not both")


@dataclass(frozen=True, eq=False)
class DatasetSplit:
    """Even IID partition of the private set, as (C, n, d) client features and
    (C, n) client labels, plus shared open and test sets."""

    client_features: np.ndarray
    client_labels: np.ndarray
    open_features: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray


def split_dataset(data: SyntheticDataset, cfg: FdProtocolConfig) -> DatasetSplit:
    """Carve the dataset into per-client private shards, the open pool, and
    the held-out test set (generation already shuffled the samples)."""
    i_p, i_o = cfg.private_size, cfg.open_size
    if data.size - i_p - i_o < 1:
        raise ValueError("no samples left for the test set")
    per_client = i_p // cfg.clients
    if per_client < 1:
        raise ValueError("private set too small for the client count")
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
    """Outcome of one distillation round."""

    server_accuracy: float
    agg_l2_error: float
    kl_per_epoch: tuple[float, ...]
    aggregation: Aggregation
    unlabeled_budget: int
    reps: int
    antennas: int
    snr_db: float | None


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
) -> tuple[SoftmaxClassifier, FdMetrics]:
    """Run the one-shot distillation stage.

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

    trained = server.copy()
    kl = trained.train_soft(
        x_u, targets, cfg.distill_epochs, cfg.batch_size, cfg.learning_rate, train_rng
    )
    metrics = FdMetrics(
        server_accuracy=trained.accuracy(split.test_features, split.test_labels),
        agg_l2_error=agg_err,
        kl_per_epoch=tuple(kl),
        aggregation=cfg.aggregation,
        unlabeled_budget=u,
        reps=cfg.round.reps,
        antennas=cfg.round.antennas,
        snr_db=cfg.snr_db,
    )
    return trained, metrics


def run_fd(cfg: FdProtocolConfig, seed: int) -> FdMetrics:
    """End-to-end pipeline: generate data, pretrain clients, distill once."""
    root = RandomSource(seed)
    data_rng, pretrain_rng, server_rng, distill_rng = root.split(4)
    data = SyntheticDataset.generate(data_rng, **asdict(cfg.data))
    split = split_dataset(data, cfg)
    clients = pretrain_clients(cfg, split, pretrain_rng)
    server = SoftmaxClassifier.initialize(cfg.data.dim, cfg.data.num_classes, server_rng)
    _, metrics = one_shot_distill(cfg, split, clients, server, distill_rng)
    return metrics


def fd_csv_row(metrics: FdMetrics, seed: int, round_index: int = 1) -> str:
    snr = "" if metrics.snr_db is None else f"{metrics.snr_db:.17g}"
    return ",".join(
        [
            str(round_index),
            str(metrics.unlabeled_budget),
            str(metrics.reps),
            str(metrics.antennas),
            snr,
            metrics.aggregation.value,
            f"{metrics.server_accuracy:.17g}",
            f"{metrics.agg_l2_error:.17g}",
            str(seed),
        ]
    )

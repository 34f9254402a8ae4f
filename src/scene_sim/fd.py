"""Toy-scale one-shot federated distillation loop using the over-the-air
aggregation primitive as its transport.

A synthetic Gaussian-cluster dataset and linear softmax classifiers stand in
for an image benchmark; the point is the aggregation behavior (repetition
sweet spot, S*M invariance, gap to noise-free averaging), not absolute
accuracy numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import analysis
from .channel import PathlossModel, simulate_round
from .core import (
    DevicePopulation,
    RandomSource,
    RhoRule,
    RoundConfig,
    SoftLabel,
    coerce_settings,
)
from .estimators import ratio_estimate, scene_estimate
from .montecarlo import PopulationSpec
from .power import map_energies, resolve_rho

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

    def predict_label(self, x: np.ndarray) -> SoftLabel:
        return SoftLabel(self.predict_proba(np.atleast_2d(x))[0])

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        pred = self.predict_proba(x).argmax(axis=1)
        return float((pred == y).mean())

    def kl_loss(self, x: np.ndarray, targets: np.ndarray) -> float:
        """Mean KL(target || prediction); zero target entries contribute 0.

        Infinite when the model puts exactly zero probability on a supported
        class, which is how runaway training manifests.
        """
        p = self.predict_proba(x)
        t = np.asarray(targets)
        with np.errstate(divide="ignore", invalid="ignore"):
            entropy_term = np.where(t > 0, t * np.log(np.where(t > 0, t, 1.0)), 0.0)
            cross = np.where(t > 0, t * np.log(p), 0.0)
        return float((entropy_term - cross).sum(axis=1).mean())

    def train_soft(
        self,
        x: np.ndarray,
        targets: np.ndarray,
        epochs: int,
        batch_size: int,
        learning_rate: float,
        rng: RandomSource,
    ) -> list[float]:
        """SGD on the KL loss; returns the loss at the end of each epoch.

        The gradient of the mean KL w.r.t. the scores is (softmax - target)/B,
        the same as cross-entropy with soft targets.
        """
        gen = rng.generator
        n = x.shape[0]
        losses = []
        for _ in range(epochs):
            order = gen.permutation(n)
            for lo in range(0, n, batch_size):
                idx = order[lo : lo + batch_size]
                xb, tb = x[idx], targets[idx]
                p = self.predict_proba(xb)
                grad_scores = (p - tb) / len(idx)
                self.weights -= learning_rate * (xb.T @ grad_scores)
                self.bias -= learning_rate * grad_scores.sum(axis=0)
            loss = self.kl_loss(x, targets)
            if not math.isfinite(loss):
                raise Divergence(
                    f"loss became {loss} (lr={learning_rate}, batch={batch_size})"
                )
            losses.append(loss)
        return losses

    def train_labels(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int,
        batch_size: int,
        learning_rate: float,
        rng: RandomSource,
    ) -> list[float]:
        """Supervised training: one-hot targets through the same SGD loop."""
        k = self.bias.size
        return self.train_soft(x, np.eye(k)[y], epochs, batch_size, learning_rate, rng)


@dataclass(frozen=True)
class DatasetSpec:
    """Synthetic data generator parameters."""

    num_classes: int = 10
    dim: int = 16
    size: int = 10_000
    noise_std: float = 0.3


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
    """Even IID partition of the private set plus shared open and test sets."""

    client_features: tuple[np.ndarray, ...]
    client_labels: tuple[np.ndarray, ...]
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
    feats, labs = [], []
    for i in range(cfg.clients):
        lo = i * per_client
        feats.append(data.features[lo : lo + per_client])
        labs.append(data.labels[lo : lo + per_client])
    return DatasetSplit(
        client_features=tuple(feats),
        client_labels=tuple(labs),
        open_features=data.features[i_p : i_p + i_o],
        test_features=data.features[i_p + i_o :],
        test_labels=data.labels[i_p + i_o :],
    )


def pretrain_clients(
    cfg: FdProtocolConfig, split: DatasetSplit, rng: RandomSource
) -> list[SoftmaxClassifier]:
    """Supervised pretraining of one classifier per client on its shard."""
    dim = split.client_features[0].shape[1]
    k = cfg.data.num_classes
    streams = rng.split(2 * cfg.clients)
    clients = []
    for i in range(cfg.clients):
        model = SoftmaxClassifier.initialize(dim, k, streams[2 * i])
        model.train_labels(
            split.client_features[i],
            split.client_labels[i],
            cfg.pretrain_epochs,
            cfg.batch_size,
            cfg.learning_rate,
            streams[2 * i + 1],
        )
        clients.append(model)
    return clients


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
    Each sample is one independent OTA round.
    """
    n, u, k = client_probs.shape
    plain = np.einsum("i,iuk->uk", pop.omegas, client_probs)
    if cfg.aggregation is Aggregation.PLAIN:
        return plain, plain
    targets = np.empty((u, k))
    streams = rng.split(u)
    for j in range(u):
        labels = [SoftLabel(client_probs[i, j]) for i in range(n)]
        frame = map_energies(
            labels, pop, round_cfg.rho, include_reference=round_cfg.use_reference_re
        )
        received = simulate_round(frame, pop, round_cfg, streams[j])
        if cfg.aggregation is Aggregation.RATIO:
            targets[j] = ratio_estimate(received).projected.probs
        else:
            targets[j] = scene_estimate(received, round_cfg).projected.probs
    return targets, plain


def _resolve_round_config(cfg: FdProtocolConfig, pop: DevicePopulation) -> RoundConfig:
    rho = resolve_rho(cfg.rho_rule, cfg.round.rho, pop)
    noise = cfg.round.noise_var
    if cfg.snr_db is not None:
        noise = analysis.calibrate_noise(rho, cfg.round.num_classes, cfg.snr_db)
    return replace(
        cfg.round,
        rho=rho,
        noise_var=noise,
        use_reference_re=cfg.aggregation is Aggregation.RATIO,
    )


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
    round_cfg = _resolve_round_config(cfg, pop)
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
    data = SyntheticDataset.generate(
        data_rng,
        num_classes=cfg.data.num_classes,
        dim=cfg.data.dim,
        size=cfg.data.size,
        noise_std=cfg.data.noise_std,
    )
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

"""Simulator and analysis library for pilot-free noncoherent over-the-air
aggregation of soft labels in federated distillation."""

from .analysis import (
    CrossoverModel,
    calibrate_noise,
    energy_covariance,
    mismatch_bias,
    mismatch_bias_bound,
    scene_variance,
    variance_bound,
)
from .channel import (
    PathlossModel,
    sample_pathloss,
    simulate_round,
    simulate_rounds,
)
from .core import (
    ChannelModel,
    DevicePopulation,
    Estimator,
    RandomSource,
    RhoRule,
    RoundConfig,
    SoftLabel,
    weighted_average,
)
from .estimators import (
    ratio_estimate,
    ratio_raw,
    scene_estimate,
    scene_raw,
    top_t_truncate,
)
from .fd import (
    Aggregation,
    DatasetSpec,
    FdMetrics,
    FdProtocolConfig,
    FdSetup,
    SoftmaxClassifier,
    SyntheticDataset,
    one_shot_distill,
    pretrain_clients,
    run_fd,
    split_dataset,
)
from .montecarlo import (
    ExperimentSpec,
    LabelKind,
    LabelSpec,
    PopulationSpec,
    ResultRow,
    TrialStats,
    WeightRule,
    mse_constant,
    run_experiment,
)
from .power import (
    EnergyFrame,
    map_energies,
    min_rho,
    run_min_rho_protocol,
)

__version__ = "0.1.0"

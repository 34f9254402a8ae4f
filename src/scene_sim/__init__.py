"""Simulator and analysis library for pilot-free noncoherent over-the-air
aggregation of soft labels in federated distillation."""

from .analysis import (
    CrossoverAnalysis,
    CrossoverModel,
    ar1_acf,
    calibrate_noise,
    crossover_threshold,
    effective_samples,
    mismatch_bias,
    mismatch_bias_bound,
    scene_variance_diagonal,
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
    scene_estimate,
    scene_raw,
    top_t_truncate,
)
from .fd import (
    Aggregation,
    DatasetSpec,
    FdMetrics,
    FdProtocolConfig,
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
    MseConstantEstimate,
    PopulationSpec,
    ResultRow,
    TrialStats,
    WeightRule,
    estimate_mse_constants,
    run_experiment,
)
from .power import (
    EnergyFrame,
    RhoReport,
    map_energies,
    min_rho,
    run_min_rho_protocol,
)

__version__ = "0.1.0"

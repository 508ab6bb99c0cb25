"""detcal: learn a black-box detector's per-category false-alarm and miss
rates from its own noisy outputs, with no ground truth, then use the learned
error model to correct what it reports."""

from .core import (
    DetectionStats,
    MetaEstimate,
    Observation,
    Percept,
    PriorConfig,
    StateSpace,
    VisualSystem,
    WorldState,
)
from .inference import (
    Particle,
    ParticleEnsemble,
    ParticleFilterConfig,
    PosteriorTrace,
    assimilate_observation,
    estimate_v,
    init_ensemble,
    online_map_world_state,
    rejuvenate,
    retrospective_infer,
    run_filter,
)
from .baselines import ThresholdPolicy, fit_threshold, fixed_prior_infer, threshold_infer
from .dataset import Corpus, Run, read_corpus, synthesize_corpus, synthesize_run
from .metrics import (
    chance_accuracy,
    meta_mse,
    observation_noise,
    rolling_accuracy_by_noise,
    world_state_accuracy,
)
from .experiment import ExperimentConfig

__version__ = "0.1.0"

__all__ = [
    "DetectionStats", "MetaEstimate", "Observation", "Percept", "PriorConfig",
    "StateSpace", "VisualSystem", "WorldState",
    "Particle", "ParticleEnsemble", "ParticleFilterConfig", "PosteriorTrace",
    "assimilate_observation", "estimate_v", "init_ensemble",
    "online_map_world_state", "rejuvenate", "retrospective_infer", "run_filter",
    "ThresholdPolicy", "fit_threshold", "fixed_prior_infer", "threshold_infer",
    "Corpus", "Run", "read_corpus", "synthesize_corpus", "synthesize_run",
    "chance_accuracy", "meta_mse", "observation_noise",
    "rolling_accuracy_by_noise", "world_state_accuracy",
    "ExperimentConfig",
    "__version__",
]

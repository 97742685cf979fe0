"""Multi-value rule set classifiers learned by annealed MAP search."""

from .bounds import BoundState, initial_bounds, log_lstar, log_omega, update_bounds, upsilon
from .data import (
    MISSING,
    Dataset,
    FeatureSpec,
    RawTable,
    discretize,
    encode_with_specs,
)
from .errors import (
    DataFormatError,
    DegenerateLabelError,
    FeatureMismatchError,
    MarsError,
    ModelFormatError,
)
from .model import (
    Condition,
    Rule,
    RuleSet,
    first_covering_rule,
    is_normalized,
    normalize,
    rule_covers,
)
from .model_io import Model, load_model, render_rules, save_model
from .scoring import (
    Confusion,
    Hyperparams,
    Score,
    confusion_counts,
    log_likelihood,
    log_prior,
    score,
    update_confusion,
)
from .search import RunLog, SearchConfig, SearchState, anneal_step, init_state, propose, run
from .synth import PlantedRule, SweepSpec, SynthSpec, generate, sweep

__all__ = [
    "BoundState",
    "Condition",
    "Confusion",
    "DataFormatError",
    "Dataset",
    "DegenerateLabelError",
    "FeatureMismatchError",
    "FeatureSpec",
    "Hyperparams",
    "MISSING",
    "MarsError",
    "Model",
    "ModelFormatError",
    "PlantedRule",
    "RawTable",
    "Rule",
    "RuleSet",
    "RunLog",
    "Score",
    "SearchConfig",
    "SearchState",
    "SweepSpec",
    "SynthSpec",
    "anneal_step",
    "confusion_counts",
    "discretize",
    "encode_with_specs",
    "first_covering_rule",
    "generate",
    "init_state",
    "initial_bounds",
    "is_normalized",
    "load_model",
    "log_likelihood",
    "log_lstar",
    "log_omega",
    "log_prior",
    "normalize",
    "propose",
    "render_rules",
    "rule_covers",
    "run",
    "save_model",
    "score",
    "sweep",
    "update_bounds",
    "update_confusion",
    "upsilon",
]

__version__ = "0.1.0"

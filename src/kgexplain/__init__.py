"""Training, post-hoc explanation, and evaluation of KG embedding predictors."""

from .effectiveness import (
    CandidateExplanation,
    EffectivenessResult,
    build_target_set,
    effectiveness_c_sufficient,
    effectiveness_latent,
    effectiveness_necessary,
    effectiveness_sufficient,
)
from .errors import (
    ConfigurationError,
    DatasetParseError,
    DomainError,
    KgExplainError,
    TrainingError,
)
from .explainers import (
    ExplainerConfig,
    explain,
    first_order_score_change,
    prefilter_topk,
)
from .kg import (
    KnowledgeGraph,
    SearchSpace,
    Triple,
    build_search_space,
    load_dataset,
    weakly_connected_component,
)
from .latent import (
    GenerativeEnsemble,
    calibrate_ensemble,
    fit_logistic_calibration,
    sample_latent_candidates,
)
from .metrics import (
    RankRow,
    RankTable,
    build_metrics_report,
    comparison_table,
    emit_report,
    hits_at_k,
    m_delta_r,
    mrr,
)
from .model import (
    EmbeddingModel,
    TrainConfig,
    grad_score_wrt_subject,
    init_model,
    load_checkpoint,
    rank,
    save_checkpoint,
    score,
    score_objects,
)
from .pareto import non_dominated, pareto_front
from .training import post_train, train

__version__ = "0.1.0"

__all__ = [
    "CandidateExplanation",
    "ConfigurationError",
    "DatasetParseError",
    "DomainError",
    "EffectivenessResult",
    "EmbeddingModel",
    "ExplainerConfig",
    "GenerativeEnsemble",
    "KgExplainError",
    "KnowledgeGraph",
    "RankRow",
    "RankTable",
    "SearchSpace",
    "TrainConfig",
    "TrainingError",
    "Triple",
    "build_metrics_report",
    "build_search_space",
    "build_target_set",
    "calibrate_ensemble",
    "comparison_table",
    "effectiveness_c_sufficient",
    "effectiveness_latent",
    "effectiveness_necessary",
    "effectiveness_sufficient",
    "emit_report",
    "explain",
    "first_order_score_change",
    "fit_logistic_calibration",
    "grad_score_wrt_subject",
    "hits_at_k",
    "init_model",
    "load_checkpoint",
    "load_dataset",
    "m_delta_r",
    "mrr",
    "non_dominated",
    "pareto_front",
    "post_train",
    "prefilter_topk",
    "rank",
    "sample_latent_candidates",
    "save_checkpoint",
    "score",
    "score_objects",
    "train",
    "weakly_connected_component",
]

"""Causal-explanation engine over latent-space oracles.

Builds synthetic structural-causal-model worlds, wraps them behind an
intervene-and-re-encode oracle contract, extracts causal graphs by
interventional probing, fits DAG-respecting local attributions, and scores
everything with graph-correctness, stability, and faithfulness metrics.
"""
from .alignment import (
    AlignmentBatch,
    AlignmentState,
    alignment_loss,
    alpha_schedule,
    frozen_loss,
    loss_gradient_fd,
    thin_svd,
)
from .attribution import (
    AttributionConfig,
    Explanation,
    confidence_delta,
    counterfactual_diff,
    lime_batch,
    lime_latent,
)
from .discovery import (
    DiscoveryConfig,
    discover,
    edge_weight,
    propose_edges,
    prune_indirect,
    resolve_cycles,
)
from .graph import CausalGraph
from .metrics import (
    EvaluationConfig,
    MetricsReport,
    correctness_index,
    entropy,
    faithfulness_index,
    mutual_information,
    stability,
)
from .oracle import ClassifierHead, Oracle, OracleConfig
from .scm import (
    BUILTIN_NAMES,
    NoiseSpec,
    SampleSet,
    ScmModel,
    StructuralEquation,
    builtin,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentBatch",
    "AlignmentState",
    "AttributionConfig",
    "BUILTIN_NAMES",
    "CausalGraph",
    "ClassifierHead",
    "DiscoveryConfig",
    "EvaluationConfig",
    "Explanation",
    "MetricsReport",
    "NoiseSpec",
    "Oracle",
    "OracleConfig",
    "SampleSet",
    "ScmModel",
    "StructuralEquation",
    "alignment_loss",
    "alpha_schedule",
    "builtin",
    "confidence_delta",
    "correctness_index",
    "counterfactual_diff",
    "discover",
    "edge_weight",
    "entropy",
    "faithfulness_index",
    "frozen_loss",
    "lime_batch",
    "lime_latent",
    "loss_gradient_fd",
    "mutual_information",
    "propose_edges",
    "prune_indirect",
    "resolve_cycles",
    "stability",
    "thin_svd",
]

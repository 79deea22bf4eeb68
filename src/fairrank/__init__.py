"""Fairness-aware personalized ranking from implicit feedback.

Pairwise matrix-factorization ranking, two ranking-fairness metrics over
item groups (exposure spread and true-positive exposure spread), an
adversarial debiasing trainer for each, penalty-based baselines, and the
data/evaluation plumbing plus a CLI to drive it all.
"""

from .adversary import AdversaryParams, init_adversary
from .config import ExperimentConfig, load_config
from .data import (
    GroupCatalog,
    InteractionDataset,
    RawInteractions,
    SyntheticSpec,
    generate_synthetic,
    load_groups,
    load_interactions,
    split,
)
from .errors import (
    ConfigError,
    DataError,
    FairrankError,
    TrainingDiverged,
    UsageError,
)
from .evaluation import (
    FairnessReport,
    evaluate_model,
    f1_at_k,
    group_divergence,
    group_ratio_stats,
    js_divergence,
    ndcg_at_k,
    prob_reo,
    prob_rsp,
    rank_topk,
    relative_std,
    user_divergence,
)
from .mf import MfParams, init_params, load_checkpoint, save_checkpoint
from .objectives import (
    ObjectiveWeights,
    bpr_pair_loss,
    fatr_reg,
    kl_loss_user,
    reg_reo_penalty,
    reg_rsp_penalty,
)
from .trainer import MODEL_KINDS, TrainConfig, TrainResult, train

__version__ = "0.1.0"

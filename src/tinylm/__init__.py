"""tinylm: a desk-scale toolkit for building tiny decoder-only language
models end to end: tokenizer compaction, architecture budgeting, weight
initialization, parameter inheritance from a trained parent, grouped-KV
conversion, and multi-round training with loss-driven resampling.
"""

from .arch import ModelConfig, search_configs
from .evaluator import ClozeItem, perplexity
from .initializers import InitScheme, initialize
from .surgery import build_child, convert_to_gqa, make_plan
from .tokenizer import compact_vocab, encode, recode, train_and_encode
from .trainer import ScalingRule, TrainPlan, multi_round_train

__version__ = "0.1.0"

__all__ = [
    "ClozeItem",
    "InitScheme",
    "ModelConfig",
    "ScalingRule",
    "TrainPlan",
    "build_child",
    "compact_vocab",
    "convert_to_gqa",
    "encode",
    "initialize",
    "make_plan",
    "multi_round_train",
    "perplexity",
    "recode",
    "search_configs",
    "train_and_encode",
]

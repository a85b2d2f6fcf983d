"""Random initialization schemes for the transformer parameters.

All linear weights draw from N(0, s^2); what varies between schemes is how s
depends on the tensor's role and layer index:

  constant        s = sigma everywhere.
  gpt2_scaled     s = sigma / sqrt(L) for the residual-branch output
                  projections (attention out, FFN down); sigma elsewhere.
  internlm_scaled s = sigma / sqrt(L) for the attention out projection and
                  the FFN gate projection only.
  depth_adaptive  q/k: s slides linearly from sqrt(2)*sigma at layer 0 to
                  sigma at layer L-1; v/out: from sigma/sqrt(2) to sigma;
                  FFN weights stay at sigma. A 1-layer model uses the
                  layer-0 endpoints.

Embedding and head always use sigma; norm scales start at 1. The same seed
always reproduces the same store bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arch import ModelConfig, ParamStore, param_shapes
from .tensor import Tensor

VARIANTS = ("constant", "gpt2_scaled", "internlm_scaled", "depth_adaptive")


@dataclass(frozen=True)
class InitScheme:
    variant: str
    sigma: float = 0.02
    seed: int = 0

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    __post_init__ = validate


def _depth_fraction(layer: int, depth: int) -> float:
    if depth == 1:
        return 0.0
    return layer / (depth - 1)


def specified_std(scheme: InitScheme, config: ModelConfig, name: str) -> float:
    """The standard deviation the scheme assigns to one named tensor."""
    sigma = scheme.sigma
    if name.endswith("_norm"):
        return 0.0  # norm scales are constant 1
    if name in ("embed", "head"):
        return sigma
    layer = int(name.split(".")[1])
    kind = name.split(".")[2]
    scaled = sigma / config.depth**0.5
    if scheme.variant == "constant":
        return sigma
    if scheme.variant == "gpt2_scaled":
        return scaled if kind in ("wo", "wdown") else sigma
    if scheme.variant == "internlm_scaled":
        return scaled if kind in ("wo", "wgate") else sigma
    # depth_adaptive
    t = _depth_fraction(layer, config.depth)
    if kind in ("wq", "wk"):
        return (2.0**0.5 + t * (1.0 - 2.0**0.5)) * sigma
    if kind in ("wv", "wo"):
        return (0.5**0.5 + t * (1.0 - 0.5**0.5)) * sigma
    return sigma


def initialize(config: ModelConfig, scheme: InitScheme) -> ParamStore:
    rng = np.random.default_rng(scheme.seed)
    tensors: dict[str, Tensor] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith("_norm"):
            tensors[name] = Tensor(np.ones(shape))
        else:
            s = specified_std(scheme, config, name)
            tensors[name] = Tensor(rng.normal(0.0, s, size=shape))
    return ParamStore(tensors)

"""Optimization engine: AdamW with cosine decay, the batch-size/learning-rate
scaling rule, and multi-round training with loss-ledger resampling.

One "batch" is an int array [B, T+1]: positions [:, :-1] are inputs and
[:, 1:] are next-token targets. A round's batches split contiguously, in
training order, into ``parts`` near-equal parts; the ledger keeps each
batch's loss at the moment it was trained, which later drives resampling
and the forgetting scan and gives the loss curve (``curve_to_csv``).

A step's gradients are freed before the next forward: ``AdamW.step`` takes
the map ``Tape.gradients`` returns as a temporary, so training holds at most
one step's gradients at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arch import ModelConfig, ParamStore, batch_loss, lm_loss
from .fileio import csv_text
from .tensor import Tape, Tensor


class NonFiniteLossError(RuntimeError):
    """Training loss became inf or nan; message names the batch index."""


@dataclass(frozen=True)
class ScalingRule:
    """lr for batch size bs is (bs / base_batch) ** increment_rate * base_lr.

    Intended for moderate batch growth; very large batches (>= 16M tokens)
    are known to degrade convergence under plain scaling and need optimizers
    outside this toolkit's scope.
    """

    base_batch: float
    base_lr: float
    increment_rate: float = 0.5

    def validate(self) -> None:
        if self.base_batch <= 0 or self.base_lr <= 0:
            raise ValueError("base_batch and base_lr must be positive")
        if not 0.0 <= self.increment_rate <= 1.0:
            raise ValueError(f"increment_rate must be in [0, 1], got {self.increment_rate}")

    __post_init__ = validate


def scaled_lr(rule: ScalingRule, batch_size: float) -> float:
    if batch_size <= 0:
        raise ValueError(f"batch size must be positive, got {batch_size}")
    return (batch_size / rule.base_batch) ** rule.increment_rate * rule.base_lr


@dataclass(frozen=True)
class TrainPlan:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.95
    adam_eps: float = 1e-8
    weight_decay: float = 0.1
    cosine_floor: float = 0.1  # fraction of peak lr at the final step
    grad_clip: float = 1.0  # global norm; 0 disables
    rounds: int = 1
    sampling_rate: float = 0.5  # reused fraction for rounds >= 2
    parts: int = 8
    seed: int = 0

    def validate(self) -> None:
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if not 0.0 < self.sampling_rate <= 1.0:
            raise ValueError(f"sampling_rate must be in (0, 1], got {self.sampling_rate}")
        if self.parts < 1:
            raise ValueError(f"parts must be >= 1, got {self.parts}")

    __post_init__ = validate


@dataclass
class LedgerEntry:
    batch_index: int
    part: int
    loss: float


@dataclass
class BatchLossLedger:
    entries: list[LedgerEntry] = field(default_factory=list)
    parts: int = 8

    def part_indices(self, part: int) -> list[int]:
        return [e.batch_index for e in self.entries if e.part == part]


def ledgers_to_csv(ledgers: list[BatchLossLedger]) -> str:
    """One row per trained batch of every round, rounds numbered from 0."""
    return csv_text(("round", "batch_index", "part", "loss"),
                    ((r, e.batch_index, e.part, e.loss)
                     for r, ledger in enumerate(ledgers) for e in ledger.entries))


def cosine_schedule(peak: float, steps: int, floor_fraction: float) -> np.ndarray:
    """Per-step lr: peak at step 0, decaying on a half cosine to
    peak * floor_fraction at the final step."""
    if steps < 1:
        raise ValueError("schedule needs at least one step")
    floor = peak * floor_fraction
    if steps == 1:
        return np.array([peak])
    t = np.arange(steps) / (steps - 1)
    return floor + 0.5 * (peak - floor) * (1.0 + np.cos(np.pi * t))


def part_assignment(n_batches: int, parts: int) -> np.ndarray:
    """Contiguous near-equal split in training order; sizes differ by <= 1."""
    sizes = [len(chunk) for chunk in np.array_split(np.arange(n_batches), parts)]
    out = np.concatenate([np.full(s, p, dtype=np.intp) for p, s in enumerate(sizes)])
    return out


class AdamW:
    """Decoupled-weight-decay Adam over a ParamStore. With a zero gradient a
    parameter shrinks by exactly (1 - lr * wd) per step. The moments take
    each parameter's dtype and update in place; every other temporary is a
    fresh numpy array."""

    def __init__(self, params: ParamStore, plan: TrainPlan):
        self.params = params
        self.plan = plan
        self.m = {k: np.zeros(t.shape, t.data.dtype) for k, t in params.tensors.items()}
        self.v = {k: np.zeros(t.shape, t.data.dtype) for k, t in params.tensors.items()}
        self.step_count = 0

    def step(self, grads: dict[Tensor, np.ndarray], lr: float) -> None:
        """One update from ``grads``, the leaf-tensor map ``Tape.gradients``
        returns; a parameter missing from it has a zero gradient."""
        plan = self.plan
        scale = None
        if plan.grad_clip > 0:
            norm = math.sqrt(sum(float((grads[t] * grads[t]).sum())
                                 for t in self.params.tensors.values() if t in grads))
            if norm > plan.grad_clip:
                scale = plan.grad_clip / norm
        self.step_count += 1
        t = self.step_count
        for name, tensor in self.params.tensors.items():
            g = grads.get(tensor, 0.0)
            if scale is not None:
                g = g * scale
            m = self.m[name]
            v = self.v[name]
            m *= plan.beta1
            m += (1.0 - plan.beta1) * g
            v *= plan.beta2
            v += (1.0 - plan.beta2) * (g * g)
            m_hat = m / (1.0 - plan.beta1**t)
            v_hat = v / (1.0 - plan.beta2**t)
            if plan.weight_decay:
                tensor.data *= 1.0 - lr * plan.weight_decay
            tensor.data -= lr * (m_hat / (np.sqrt(v_hat) + plan.adam_eps))


def train_round(
    config: ModelConfig,
    params: ParamStore,
    batches: list[np.ndarray],
    plan: TrainPlan,
    batch_indices: list[int] | None = None,
) -> tuple[ParamStore, BatchLossLedger]:
    """One pass over ``batches`` in order. The ledger records each batch's
    pre-update loss and its contiguous part index. ``batch_indices`` lets a
    resampled round keep original corpus batch ids in its ledger."""
    if not batches:
        raise ValueError("train_round needs a nonempty batch list")
    lr_schedule = cosine_schedule(plan.lr, len(batches), plan.cosine_floor)
    if batch_indices is None:
        batch_indices = list(range(len(batches)))
    parts = part_assignment(len(batches), plan.parts)
    params.set_requires_grad(True)
    opt = AdamW(params, plan)
    ledger = BatchLossLedger(parts=plan.parts)
    try:
        for i, batch in enumerate(batches):
            with Tape() as tape:
                loss = lm_loss(config, params, batch)
            loss_val = float(loss.data)
            if not math.isfinite(loss_val):
                raise NonFiniteLossError(f"non-finite loss at batch {i}")
            ledger.entries.append(LedgerEntry(batch_indices[i], int(parts[i]), loss_val))
            opt.step(tape.gradients(loss), float(lr_schedule[i]))
    finally:
        params.set_requires_grad(False)
    return params, ledger


def resample(ledger: BatchLossLedger, sampling_rate: float, seed: int = 0) -> list[int]:
    """Pick batches for the next round. Within each part, the training-time
    losses soften into probabilities p_i = exp(l_i) / sum_j exp(l_j) and
    ceil(rate * N_part) distinct batches are drawn sequentially in proportion
    to p; the combined selection is then shuffled globally."""
    if not ledger.entries:
        raise ValueError("cannot resample from an empty ledger")
    if not 0.0 < sampling_rate <= 1.0:
        raise ValueError(f"sampling rate must be in (0, 1], got {sampling_rate}")
    rng = np.random.default_rng(seed)
    selected: list[int] = []
    for part in range(ledger.parts):
        indices = ledger.part_indices(part)
        if not indices:
            continue
        p = part_probabilities(ledger, part)
        n_draw = math.ceil(sampling_rate * len(indices))
        remaining = list(range(len(indices)))
        for _ in range(n_draw):
            p_norm = p[remaining] / p[remaining].sum()
            pick = rng.choice(len(remaining), p=p_norm)
            selected.append(indices[remaining[pick]])
            remaining.pop(pick)
    order = rng.permutation(len(selected))
    return [selected[i] for i in order]


def part_probabilities(ledger: BatchLossLedger, part: int) -> np.ndarray:
    """The softmax selection probabilities of one part, in entry order."""
    losses = np.array([e.loss for e in ledger.entries if e.part == part])
    z = losses - losses.max()
    p = np.exp(z)
    return p / p.sum()


def multi_round_train(
    config: ModelConfig,
    params: ParamStore,
    batches: list[np.ndarray],
    plan: TrainPlan,
) -> tuple[ParamStore, list[BatchLossLedger]]:
    """Round 1 trains on every batch; each later round trains on a
    loss-weighted resample of the previous round, under a fresh cosine
    schedule and fresh optimizer state."""
    ledgers: list[BatchLossLedger] = []
    params, ledger = train_round(config, params, batches, plan)
    ledgers.append(ledger)
    for r in range(1, plan.rounds):
        picked = resample(ledgers[-1], plan.sampling_rate, seed=plan.seed + r)
        round_batches = [batches[i] for i in picked]
        params, ledger = train_round(config, params, round_batches, plan, batch_indices=picked)
        ledgers.append(ledger)
    return params, ledgers


def forgetting_scan(
    config: ModelConfig,
    params: ParamStore,
    batches: list[np.ndarray],
    ledger: BatchLossLedger,
) -> list[float]:
    """Recompute current loss on every batch of each part; per-part means in
    training order. Rising values toward part 1 mean earlier data was
    forgotten."""
    means: list[float] = []
    for part in range(ledger.parts):
        idx = ledger.part_indices(part)
        if not idx:
            continue
        losses = [batch_loss(config, params, batches[i]) for i in idx]
        means.append(float(np.mean(losses)))
    return means


def curve_to_csv(ledgers: list[BatchLossLedger], plan: TrainPlan) -> str:
    """``step,lr,loss`` rows, a view of the ledgers: steps count on across
    rounds, and each step's lr comes from its round's cosine schedule."""
    lrs = [lr for ledger in ledgers
           for lr in cosine_schedule(plan.lr, len(ledger.entries), plan.cosine_floor)]
    losses = [e.loss for ledger in ledgers for e in ledger.entries]
    return csv_text(("step", "lr", "loss"), zip(range(len(lrs)), lrs, losses))

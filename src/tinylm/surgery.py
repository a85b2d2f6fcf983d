"""Parameter inheritance from a larger trained parent: layer-skip importance
scans, layer selection, structural-unit scoring (weight norms, first-order
saliency, learned gates), child construction, and MHA -> grouped-KV
conversion by mean-pooling.

Structural units are whole attention heads and whole FFN hidden channels.
Head-level scoring and slicing require an MHA parent (kv_groups == n_heads)
so each head owns a full q/k/v/out block; convert a child to grouped KV
afterwards if wanted. All tie-breaks prefer the lower index.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .arch import AXES, ModelConfig, ParamStore, batch_loss, lm_loss, param_shapes
from .fileio import csv_text, read_json
from .tensor import Tape, Tensor, sigmoid
from .trainer import AdamW, TrainPlan

CRITERIA = ("l1", "l2", "taylor", "learned")


class PlanError(ValueError):
    """An inheritance plan is inconsistent with the configs it bridges; from
    check_child, ``field`` is parent.<attr>, child.<attr>, keep_ends or gqa_groups."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def check_child(parent: ModelConfig, child: ModelConfig | None = None,
                keep_ends: tuple[int, int] | None = None, gqa_groups: int | None = None,
                head_level: bool = False) -> None:
    """Every rule on the child surgery slices from ``parent``: no deeper, no
    more heads or FFN channels, the parent's head_dim. ``keep_ends``, the
    first and last layers a generated plan keeps, fit the child's depth;
    ``head_level`` surgery (heads scored or pruned one by one) needs an MHA
    parent and child; ``gqa_groups`` divides the n_heads of an MHA child.
    Without a ``child`` (its shape is not known yet), the parent's rules only."""
    if child and gqa_groups is not None:
        if gqa_groups < 1 or child.n_heads % gqa_groups:
            raise PlanError(f"gqa_groups {gqa_groups} does not divide child n_heads "
                            f"{child.n_heads}", "gqa_groups")
        if child.kv_groups != child.n_heads:
            raise PlanError(f"gqa_groups needs an MHA child, but child kv_groups "
                            f"{child.kv_groups} differs from n_heads {child.n_heads}",
                            "gqa_groups")
    _check_layers(parent.depth, child and child.depth, keep_ends)
    for name in ("n_heads", "ffn_hidden") if child else ():
        if getattr(child, name) > getattr(parent, name):
            raise PlanError(f"child {name} {getattr(child, name)} exceeds parent {name} "
                            f"{getattr(parent, name)}", f"child.{name}")
    if child and child.head_dim != parent.head_dim:
        raise PlanError(f"child head_dim {child.head_dim} (width / n_heads) differs from parent "
                        f"head_dim {parent.head_dim}", "child.head_dim")
    for side, config in (("parent", parent), ("child", child)) if head_level else ():
        if config and config.kv_groups != config.n_heads:
            raise PlanError(f"head-level surgery needs an MHA {side}, but {side} kv_groups "
                            f"{config.kv_groups} differs from n_heads {config.n_heads}; group "
                            "a child's KV heads after surgery (convert_to_gqa, gqa_groups)",
                            f"{side}.kv_groups")


def _check_layers(depth: int, child_depth: int | None, keep_ends: tuple[int, int] | None) -> None:
    """check_child's rules on depths, which select_layers applies too."""
    if child_depth is not None and child_depth > depth:
        raise PlanError(f"child depth {child_depth} exceeds parent depth {depth}", "child.depth")
    if keep_ends is not None and (len(keep_ends) != 2 or not all(
            isinstance(k, (int, np.integer)) and k >= 0 for k in keep_ends)):
        raise PlanError(f"keep_ends must be two non-negative integers [front, back], got "
                        f"{keep_ends!r}", "keep_ends")
    side, fits = ("parent", depth) if child_depth is None else ("child", child_depth)
    if keep_ends is not None and sum(keep_ends) > fits:
        raise PlanError(f"keep_ends {keep_ends} keep more layers than {side} depth {fits}",
                        "keep_ends")


# ---------------------------------------------------------------------------
# layer importance
# ---------------------------------------------------------------------------


@dataclass
class LayerImportance:
    baseline: float
    scores: dict[tuple[int, int], float]  # (window, start) -> metric when skipped
    depth: int

    def importance(self, window: int, start: int) -> float:
        return self.baseline - self.scores[(window, start)]

    def to_csv(self) -> str:
        return csv_text(("window", "start", "score", "importance"),
                        ((w, s, v, self.baseline - v) for (w, s), v in sorted(self.scores.items())))


def layer_skip_eval(
    config: ModelConfig,
    params: ParamStore,
    eval_batches: list[np.ndarray],
    windows: tuple[int, ...] = (1, 2, 3),
) -> LayerImportance:
    """Metric (negative mean loss) of the model with each contiguous layer
    window bypassed, plus the no-skip baseline. Importance of a window is
    baseline minus its skipped score."""
    if not eval_batches:
        raise ValueError("layer_skip_eval needs a nonempty eval set")

    def metric(skip: frozenset[int]) -> float:
        losses = [batch_loss(config, params, b, skip_layers=skip) for b in eval_batches]
        return -float(np.mean(losses))

    baseline = metric(frozenset())
    scores: dict[tuple[int, int], float] = {}
    for w in windows:
        for start in range(0, config.depth - w + 1):
            scores[(w, start)] = metric(frozenset(range(start, start + w)))
    return LayerImportance(baseline=baseline, scores=scores, depth=config.depth)


def select_layers(
    importance: LayerImportance,
    child_depth: int,
    keep_ends: tuple[int, int] = (2, 2),
) -> list[int]:
    """First ``f`` and last ``b`` parent layers always survive; the rest of
    the child slots go to the highest single-layer importances among the
    middle layers. Returns ascending parent layer indices."""
    depth = importance.depth
    _check_layers(depth, child_depth, keep_ends)
    f, b = keep_ends
    kept = set(range(f)) | set(range(depth - b, depth))
    middle = [i for i in range(depth) if i not in kept]
    gains = np.array([importance.importance(1, i) for i in middle])
    kept.update(middle[j] for j in _top(gains, child_depth - len(kept)))
    return sorted(kept)


# ---------------------------------------------------------------------------
# structural-unit scoring
# ---------------------------------------------------------------------------


def _top(scores: np.ndarray, k: int) -> list[int]:
    """Indices of the ``k`` highest scores, ascending; ties keep the lower
    index."""
    return sorted(int(i) for i in np.argsort(-scores, kind="stable")[:k])


@dataclass
class NeuronScores:
    """One score per head and FFN channel; only their order matters to
    ``top_units`` (learned: the raw gate logits or their sigmoid openness)."""

    criterion: str
    head_scores: list[np.ndarray]  # per layer, [n_heads]
    ffn_scores: list[np.ndarray]  # per layer, [ffn_hidden]

    def top_units(self, layer: int, n_heads: int, n_channels: int) -> tuple[list[int], list[int]]:
        """Indices of the best units in one layer, ascending; ties keep the
        lower index."""
        return _top(self.head_scores[layer], n_heads), _top(self.ffn_scores[layer], n_channels)


def _unit_sums(config: ModelConfig, per_param: dict[str, np.ndarray]):
    """Per layer, the sum of ``per_param`` (arrays shaped like the weights,
    keyed by parameter name) over each head's q/k/v/out block and over each
    FFN channel's gate/up/down slices: ([n_heads] per layer, [ffn_hidden]
    per layer)."""
    d, h, hd = config.width, config.n_heads, config.head_dim
    head_sums, ffn_sums = [], []
    for p in (f"layers.{i}." for i in range(config.depth)):
        w = {k: per_param[p + k] for k in ("wq", "wk", "wv", "wo", "wgate", "wup", "wdown")}
        head_sums.append(
            sum(w[k].reshape(d, h, hd).sum(axis=(0, 2)) for k in ("wq", "wk", "wv"))
            + w["wo"].reshape(h, hd, d).sum(axis=(1, 2))
        )
        ffn_sums.append(w["wgate"].sum(axis=0) + w["wup"].sum(axis=0) + w["wdown"].sum(axis=1))
    return head_sums, ffn_sums


def score_neurons(
    config: ModelConfig,
    params: ParamStore,
    data_batches: list[np.ndarray],
    criterion: str,
    mask_steps: int = 120,
) -> NeuronScores:
    """Importance of every head and FFN channel under one criterion.

    l1 sums the unit's weight magnitudes and l2 takes the root of its summed
    squares; taylor sums |w * dL/dw| over the given batches; learned trains
    relaxed gates (via learn_masks with a half-size target) and reports
    their final openness.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}; choose from {CRITERIA}")
    check_child(config, head_level=True)

    if criterion == "learned":
        # train gates toward a generic half-size target and report the final
        # gate openness (monotone in the logits, so top_units ranks the same)
        logits = learn_masks(
            config,
            params,
            data_batches,
            child_heads=max(1, config.n_heads // 2),
            child_channels=max(1, config.ffn_hidden // 2),
            steps=mask_steps,
        )
        head_scores = [1.0 / (1.0 + np.exp(-lg)) for lg in logits.head_scores]
        ffn_scores = [1.0 / (1.0 + np.exp(-lg)) for lg in logits.ffn_scores]
        return NeuronScores("learned", head_scores, ffn_scores)

    if criterion == "taylor":
        if not data_batches:
            raise ValueError("taylor criterion needs data batches")
        per_param = {name: 0.0 for name in params.tensors}
        params.set_requires_grad(True)
        try:
            for batch in data_batches:
                with Tape() as tape:
                    loss = lm_loss(config, params, batch)
                grad_map = tape.gradients(loss)
                for name, tensor in params.tensors.items():
                    per_param[name] = per_param[name] + np.abs(tensor.data * grad_map[tensor])
                del grad_map  # free this batch's gradients before the next forward
        finally:
            params.set_requires_grad(False)
    elif criterion == "l1":
        per_param = {name: np.abs(t.data) for name, t in params.tensors.items()}
    else:
        per_param = {name: t.data * t.data for name, t in params.tensors.items()}
    sums = _unit_sums(config, per_param)
    if criterion == "l2":
        sums = ([np.sqrt(s) for s in layers] for layers in sums)
    return NeuronScores(criterion, *sums)


# ---------------------------------------------------------------------------
# learned masks
# ---------------------------------------------------------------------------


MASK_LR = 0.1
MASK_TEMPERATURE = (2.0, 0.5)  # gate temperature at the first and the last step
MASK_PENALTY = 1.0  # weight of each layer's squared count gap


def learn_masks(
    config: ModelConfig,
    params: ParamStore,
    data_batches: list[np.ndarray],
    child_heads: int,
    child_channels: int,
    steps: int = 100,
    seed: int = 0,
) -> NeuronScores:
    """Optimize one relaxed binary gate per head / FFN channel and return
    the final gate logits as ``NeuronScores("learned", ...)``.

    Gates are sigmoid(logit / tau) with tau decaying linearly over
    MASK_TEMPERATURE; the objective is the task loss plus MASK_PENALTY times
    the squared gap between each layer's expected retained count and its
    target. Model weights stay frozen; only the gate logits move (AdamW at
    MASK_LR with beta2 0.999, no weight decay and no clipping). The logits
    take the parameters' dtype."""
    if not data_batches:
        raise ValueError("learn_masks needs data batches")
    try:  # the child these counts give every layer of the parent
        child = replace(config, width=child_heads * config.head_dim, n_heads=child_heads,
                        kv_groups=child_heads, ffn_hidden=child_channels)
    except ValueError as err:
        raise PlanError(f"{child_heads} heads and {child_channels} FFN channels per layer make "
                        f"no child: {err}") from err
    check_child(config, child, head_level=True)
    params.set_requires_grad(False)
    rng = np.random.default_rng(seed)
    dtype = params.dtype
    # gates open at the start: the relaxed model begins at the dense model's
    # operating point and the count penalty prunes from there
    head_logits, ffn_logits = ([
        Tensor(np.asarray(2.0 + rng.normal(0.0, 0.01, size=n), dtype), requires_grad=True)
        for _ in range(config.depth)
    ] for n in (config.n_heads, config.ffn_hidden))
    gates = ParamStore({str(i): lg for i, lg in enumerate(head_logits + ffn_logits)})
    opt = AdamW(gates, TrainPlan(lr=MASK_LR, beta2=0.999, weight_decay=0.0, grad_clip=0.0))
    tau0, tau1 = MASK_TEMPERATURE
    for step in range(steps):
        tau = tau0 + (tau1 - tau0) * (step / max(1, steps - 1))
        batch = data_batches[step % len(data_batches)]
        with Tape() as tape:
            head_gates = [sigmoid(lg * (1.0 / tau)) for lg in head_logits]
            ffn_gates = [sigmoid(lg * (1.0 / tau)) for lg in ffn_logits]
            loss = lm_loss(config, params, batch, head_gates=head_gates, ffn_gates=ffn_gates)
            for gates, target in ((head_gates, child_heads), (ffn_gates, child_channels)):
                for g in gates:
                    loss = loss + MASK_PENALTY * (g.sum() - float(target)) ** 2
        if not np.isfinite(loss.data):
            raise RuntimeError(f"mask optimization diverged at step {step}")
        opt.step(tape.gradients(loss), MASK_LR)
    return NeuronScores(
        "learned",
        [lg.data.copy() for lg in head_logits],
        [lg.data.copy() for lg in ffn_logits],
    )


# ---------------------------------------------------------------------------
# inheritance plans and child construction
# ---------------------------------------------------------------------------


@dataclass
class InheritancePlan:
    kept_layers: list[int]
    head_indices: list[list[int]]  # per kept layer, ascending
    ffn_indices: list[list[int]]  # per kept layer, ascending
    channel_plan: list[int]  # residual-stream columns, shared by all layers
    vocab_map: list[int]  # child row -> parent row for embedding/head

    def validate(self, parent: ModelConfig, child: ModelConfig) -> None:
        self.validate_structure(parent, child)
        if len(self.vocab_map) != child.vocab_size:
            raise PlanError(
                f"vocab map length {len(self.vocab_map)} != child vocab {child.vocab_size}"
            )

    def validate_structure(self, parent: ModelConfig, child: ModelConfig | None) -> None:
        """Every check but the vocab_map length, which needs the child's final
        vocabulary size. Without a ``child`` (its shape is not known yet), the
        checks against the parent alone: every id in range and ordered, one
        unit list per kept layer, and pruned heads only from an MHA parent."""
        _check_ids("kept_layers", self.kept_layers, parent.depth, increasing=True)
        depth = len(self.kept_layers)
        if child and depth != child.depth:
            raise PlanError(f"plan keeps {depth} layers, child depth is {child.depth}")
        for name in ("head_indices", "ffn_indices"):
            units = getattr(self, name)
            if not isinstance(units, (list, tuple)) or len(units) != depth:
                raise PlanError(f"{name} must hold one list per child layer ({depth})")
        for heads, chans in zip(self.head_indices, self.ffn_indices):
            _check_ids("head_indices", heads, parent.n_heads, increasing=True)
            _check_ids("ffn_indices", chans, parent.ffn_hidden, increasing=True)
            if child and len(heads) != child.n_heads:
                raise PlanError(f"plan retains {len(heads)} heads, child has {child.n_heads}")
            if child and len(chans) != child.ffn_hidden:
                raise PlanError(
                    f"plan retains {len(chans)} FFN channels, child has {child.ffn_hidden}"
                )
        pruned = any(heads != list(range(parent.n_heads)) for heads in self.head_indices)
        check_child(parent, child, head_level=pruned)
        if child and not pruned and child.kv_groups != parent.kv_groups:
            raise PlanError(
                f"child kv_groups {child.kv_groups} must match parent "
                f"{parent.kv_groups} when no heads are pruned"
            )
        _check_ids("channel_plan", self.channel_plan, parent.width, increasing=True)
        if child and len(self.channel_plan) != child.width:
            raise PlanError(
                f"channel plan length {len(self.channel_plan)} != child width {child.width}"
            )
        _check_ids("vocab_map", self.vocab_map, parent.vocab_size, increasing=False)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text) -> "InheritancePlan":
        """The plan as written, from str or UTF-8 bytes; ``validate`` checks its entries."""
        d = read_json(text, "plan")
        keys = tuple(f.name for f in fields(cls))
        if not isinstance(d, dict) or sorted(d) != sorted(keys):
            raise PlanError(f"a plan is a JSON object with exactly the keys {keys}")
        return cls(**d)


def _check_ids(name: str, ids, bound: int, increasing: bool) -> None:
    """Plan entries are integers (not bools) in [0, bound), strictly
    increasing where ``increasing``."""
    if not isinstance(ids, (list, tuple)):
        raise PlanError(f"{name} must be a list of integers, got {ids!r}")
    for i in ids:
        if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
            raise PlanError(f"{name} entry {i!r} is not an integer")
        if not 0 <= i < bound:
            raise PlanError(f"{name} entry {i} outside the parent's [0, {bound})")
    if increasing:
        for a, b in zip(ids, ids[1:]):
            if a >= b:
                raise PlanError(f"{name} must be strictly increasing; {b} follows {a}")


def identity_plan(config: ModelConfig) -> InheritancePlan:
    return InheritancePlan(
        kept_layers=list(range(config.depth)),
        head_indices=[list(range(config.n_heads)) for _ in range(config.depth)],
        ffn_indices=[list(range(config.ffn_hidden)) for _ in range(config.depth)],
        channel_plan=list(range(config.width)),
        vocab_map=list(range(config.vocab_size)),
    )


def build_child(
    parent_config: ModelConfig,
    parent_params: ParamStore,
    plan: InheritancePlan,
    child_config: ModelConfig,
) -> ParamStore:
    """Slice the parent into a child ParamStore: kept layers in order, head
    blocks and FFN channels per layer, one shared residual-channel plan, and
    embedding/head rows from the vocab map. Each child tensor takes, along
    each axis, the parent indices of that axis's role (``AXES``)."""
    plan.validate(parent_config, child_config)
    hd = parent_config.head_dim
    shared = {"vocab": np.asarray(plan.vocab_map), "width": np.asarray(plan.channel_plan)}
    # validate_structure lets only an MHA parent lose heads: a grouped-KV
    # parent keeps all of its KV columns
    mha = parent_config.kv_groups == parent_config.n_heads
    layers = []
    for heads, chans in zip(plan.head_indices, plan.ffn_indices):
        cols = (np.asarray(heads)[:, None] * hd + np.arange(hd)).ravel()
        kv = cols if mha else np.arange(parent_config.kv_groups * hd)
        layers.append({**shared, "heads": cols, "kv": kv, "ffn": np.asarray(chans)})
    tensors: dict[str, Tensor] = {}
    for name in param_shapes(child_config):
        kind = name.rsplit(".", 1)[-1]
        if name.startswith("layers."):
            i = int(name.split(".")[1])
            source, index = f"layers.{plan.kept_layers[i]}.{kind}", layers[i]
        else:
            source, index = name, shared
        tensors[name] = Tensor(parent_params[source].data[np.ix_(*(index[r] for r in AXES[kind]))])
    return ParamStore(tensors)  # plan.validate fixed every index count, so every shape


def channel_importance(config: ModelConfig, params: ParamStore) -> np.ndarray:
    """Aggregate L2 mass of each residual-stream channel across the embedding,
    head, and every layer's projections; make_plan keeps the heaviest."""
    sq = np.zeros(config.width)
    for name in param_shapes(config):
        axes = AXES[name.rsplit(".", 1)[-1]]
        if len(axes) == 2:  # projections and embeddings; norm scales are not ranked
            sq += (params[name].data ** 2).sum(axis=1 - axes.index("width"))
    return np.sqrt(sq)


def make_plan(
    parent_config: ModelConfig,
    parent_params: ParamStore,
    child_config: ModelConfig,
    data_batches: list[np.ndarray],
    criterion: str = "taylor",
    keep_ends: tuple[int, int] = (2, 2),
    vocab_map: list[int] | None = None,
    mask_steps: int = 120,
    seed: int = 0,
) -> InheritancePlan:
    """End-to-end plan generation: skip-scan the parent for layer selection,
    score units with the chosen criterion, rank residual channels by
    aggregate L2, and map vocab rows (identity when sizes match). Raises
    PlanError for a child ``check_child`` refuses, before any forward runs,
    and for a plan ``build_child`` would refuse."""
    check_child(parent_config, child_config, keep_ends, head_level=True)
    if vocab_map is None:
        if child_config.vocab_size != parent_config.vocab_size:
            raise PlanError("vocab sizes differ; pass an explicit vocab_map")
        vocab_map = list(range(parent_config.vocab_size))
    importance = layer_skip_eval(parent_config, parent_params, data_batches, windows=(1,))
    kept_layers = select_layers(importance, child_config.depth, keep_ends)
    if criterion == "learned":
        scores = learn_masks(
            parent_config,
            parent_params,
            data_batches,
            child_heads=child_config.n_heads,
            child_channels=child_config.ffn_hidden,
            steps=mask_steps,
            seed=seed,
        )
    else:
        scores = score_neurons(parent_config, parent_params, data_batches, criterion)
    units = [scores.top_units(i, child_config.n_heads, child_config.ffn_hidden)
             for i in kept_layers]
    head_indices, ffn_indices = (list(layers) for layers in zip(*units))
    channel_plan = _top(channel_importance(parent_config, parent_params), child_config.width)
    plan = InheritancePlan(
        kept_layers=kept_layers,
        head_indices=head_indices,
        ffn_indices=ffn_indices,
        channel_plan=channel_plan,
        vocab_map=list(vocab_map),
    )
    plan.validate(parent_config, child_config)  # build_child's rules, raised here
    return plan


# ---------------------------------------------------------------------------
# grouped-KV conversion
# ---------------------------------------------------------------------------


def convert_to_gqa(
    config: ModelConfig, params: ParamStore, groups: int
) -> tuple[ModelConfig, ParamStore]:
    """Mean-pool each group's KV head projections into one shared head.
    Query and output projections are untouched."""
    check_child(config, config, gqa_groups=groups)
    hd = config.head_dim
    group_size = config.n_heads // groups
    tensors: dict[str, Tensor] = {}
    for name, t in params.tensors.items():
        data = t.data
        for axis, role in enumerate(AXES[name.rsplit(".", 1)[-1]]):
            if role == "kv":
                before, after = data.shape[:axis], data.shape[axis + 1:]
                blocks = data.reshape(*before, groups, group_size, hd, *after)
                data = blocks.mean(axis=axis + 1).reshape(*before, groups * hd, *after)
        tensors[name] = Tensor(data.copy())
    new_config = replace(config, kv_groups=groups)
    store = ParamStore(tensors)
    store.validate(new_config)
    return new_config, store

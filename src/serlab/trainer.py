"""Two-stage training: per-modality encoders first, then a fusion head on
frozen extractors.  Adam optimizer, best-dev checkpoint selection, JSONL
epoch logs, and deterministic outputs for a fixed (data, config, seed).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, replace
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import dataio, losses, model, sampling
from . import numerics as nm
from .dataio import PredictionSet, UtteranceRecord
from .metrics import (
    EMOTION_CODES,
    attribute_metrics,
    clamp_attributes,
    classification_metrics,
    code_to_index,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

STAGE_DEFAULTS = {1: {"learning_rate": 1e-5, "epochs": 20}, 2: {"learning_rate": 5e-6, "epochs": 5}}

CATEGORICAL_LOSSES = ("wce", "focal")
ATTRIBUTE_LOSSES = ("ccc_loss", "mse")
SAMPLERS = ("shuffled", "balanced")


@dataclass
class TrainConfig:
    stage: int
    task: str
    modality: str | None = None
    loss: str | None = None
    sampler: str = "shuffled"
    fusion: str = "concat"
    activation: str = "mish"
    batch_size: int = 32
    learning_rate: float | None = None
    epochs: int | None = None
    seed: int = 0
    hidden_dim: int = 16
    out_dim: int = 16
    attn_dim: int = 16
    focal_gamma: float = 2.0

    def __post_init__(self) -> None:
        if self.stage not in (1, 2):
            raise ValueError(f"stage must be 1 or 2, got {self.stage}")
        if self.task not in model.TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.stage == 1 and self.modality not in model.MODALITIES:
            raise ValueError(f"stage 1 needs modality 'speech' or 'text', got {self.modality!r}")
        if self.fusion not in model.FUSION_KINDS:
            raise ValueError(f"unknown fusion {self.fusion!r}")
        if self.activation not in model.ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.loss is None:
            self.loss = "focal" if self.task == "categorical" else "ccc_loss"
        allowed = CATEGORICAL_LOSSES if self.task == "categorical" else ATTRIBUTE_LOSSES
        if self.loss not in allowed:
            raise ValueError(f"loss {self.loss!r} does not fit task {self.task!r}")
        defaults = STAGE_DEFAULTS[self.stage]
        if self.learning_rate is None:
            self.learning_rate = defaults["learning_rate"]
        if self.epochs is None:
            self.epochs = defaults["epochs"]
        for field in ("hidden_dim", "out_dim", "attn_dim"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1, got {getattr(self, field)}")
        if self.batch_size < 1 or self.epochs < 1 or self.learning_rate < 0:
            raise ValueError("batch_size/epochs must be >= 1 and learning_rate >= 0")
        for field in ("learning_rate", "focal_gamma"):
            if not math.isfinite(getattr(self, field)):
                raise ValueError(f"{field} must be finite, got {getattr(self, field)}")
        if self.focal_gamma < 0:
            raise ValueError(f"focal_gamma must be >= 0, got {self.focal_gamma}")
        if self.loss == "ccc_loss" and self.batch_size < 2:
            raise ValueError(f"ccc_loss needs batch_size >= 2, got {self.batch_size}")
        if self.sampler == "balanced" and self.batch_size % losses.NUM_CLASSES:
            raise ValueError(f"sampler 'balanced' needs batch_size a multiple of "
                             f"{losses.NUM_CLASSES}, got {self.batch_size}")

    def echo(self) -> dict:
        return asdict(self)


@dataclass
class Checkpoint:
    """Trained tensors and their model's metadata, checked when built: a
    ValueError names the first metadata key or tensor the model builder
    cannot read (missing, mistyped, misshapen or non-finite), or the first
    tensor the metadata does not describe.  Readers trust this, so rebuild a
    bad checkpoint rather than edit one in place."""

    tensors: dict[str, np.ndarray]
    metadata: dict

    def __post_init__(self) -> None:
        shapes = _param_shapes(self.metadata)
        extra = next((name for name in self.tensors if name not in shapes), None)
        if extra is not None:
            raise ValueError(f"tensor {extra!r} is not part of the model its metadata describes")
        for name, shape in shapes.items():
            got = self.tensors.get(name)
            if got is None:
                raise ValueError(f"tensor {name!r} is missing")
            if got.shape != shape:
                raise ValueError(f"tensor {name!r} has shape {got.shape}, expected {shape}")
            finite = np.isfinite(got).ravel()
            if not finite.all():
                raise ValueError(
                    f"tensor {name!r} is not finite at flat index {int(np.argmin(finite))}"
                )

    @property
    def content_id(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(self.metadata, sort_keys=True).encode("utf-8"))
        for name in sorted(self.tensors):
            arr = np.ascontiguousarray(self.tensors[name], dtype=np.float64)
            h.update(name.encode("utf-8"))
            h.update(str(arr.shape).encode("utf-8"))
            h.update(arr.tobytes())
        return h.hexdigest()

    def save(self, path) -> None:
        dataio.write_checkpoint(path, self.tensors, self.metadata)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        tensors, metadata = dataio.read_checkpoint(path)
        try:
            return cls(tensors=tensors, metadata=metadata)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None


def _meta_value(meta: dict, key: str, choices: tuple | None = None):
    """``meta`` at the dotted ``key``: one of ``choices``, or without them an
    integer >= 1."""
    value = meta
    for part in key.split("."):
        if not isinstance(value, dict) or part not in value:
            raise ValueError(f"metadata has no {key!r}")
        value = value[part]
    if choices is None:
        if type(value) is not int or value < 1:
            raise ValueError(f"metadata {key!r} must be an integer >= 1, got {value!r}")
    elif type(value) not in (int, str) or value not in choices:
        raise ValueError(f"metadata {key!r} must be one of {choices}, got {value!r}")
    return value


class AdamState:
    """Adam's step count and moments for the parameters ``names``.

    Each moment is one flat float64 buffer, ``flat_m`` and ``flat_v``,
    holding the parameters' entries back to back in ``names`` order;
    ``views`` splits one into the parameters' shapes.
    """

    def __init__(self, names: Sequence[str], shapes: Sequence[tuple[int, ...]]) -> None:
        self.names = tuple(names)
        self.shapes = tuple(shapes)
        self.bounds = np.cumsum([0] + [math.prod(s) for s in self.shapes]).tolist()
        self.step = 0
        self.flat_m = np.zeros(self.bounds[-1])
        self.flat_v = np.zeros(self.bounds[-1])

    @classmethod
    def for_params(cls, params: nm.ParamStore, names: Sequence[str]) -> "AdamState":
        return cls(names, [params.value(n).shape for n in names])

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's slice of a flat buffer, by name, in its shape."""
        b = self.bounds
        return {n: flat[b[i]:b[i + 1]].reshape(s)
                for i, (n, s) in enumerate(zip(self.names, self.shapes))}


def adam_step(
    params: nm.ParamStore, grads: Mapping[str, np.ndarray], state: AdamState, lr: float
) -> None:
    """One Adam update over the parameters tracked by ``state``, as one set of
    vector ops over their values and gradients laid end to end.

    Each parameter is rebound to its view of the new values, never written
    in place: graphs built before the step may still read its old array.
    """
    for name, shape in zip(state.names, state.shapes):
        if grads[name].shape != shape:
            raise ValueError(
                f"adam_step: gradient shape {grads[name].shape} mismatches {name!r} {shape}"
            )
    g = np.concatenate([grads[n] for n in state.names], axis=None)
    p = np.concatenate([params.value(n) for n in state.names], axis=None)
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    state.flat_m = ADAM_BETA1 * state.flat_m + (1.0 - ADAM_BETA1) * g
    state.flat_v = ADAM_BETA2 * state.flat_v + (1.0 - ADAM_BETA2) * (g * g)
    new = p - lr * (state.flat_m / bc1) / (np.sqrt(state.flat_v / bc2) + ADAM_EPS)
    for name, view in state.views(new).items():
        params.set_value(name, view)


# ---------------------------------------------------------------------------
# shared training machinery

def _split_records(
    records: Sequence[UtteranceRecord], cfg: TrainConfig
) -> tuple[list[UtteranceRecord], list[UtteranceRecord]]:
    train = [r for r in records if r.split == "train"]
    dev = [r for r in records if r.split == "dev"]
    if not train:
        raise ValueError("empty train split")
    if not dev:
        raise ValueError("empty dev split")
    if cfg.task == "attributes" and len(dev) < 2:
        raise ValueError(f"attribute task needs at least 2 dev records, got {len(dev)}")
    if cfg.loss == "ccc_loss" and len(train) < 2:
        raise ValueError(f"ccc_loss needs at least 2 train records, got {len(train)}")
    seen: set[str] = set()
    for r in train + dev:
        if r.id in seen:
            raise ValueError(f"duplicate record id {r.id!r} in train + dev")
        seen.add(r.id)
    needed = "emotion" if cfg.task == "categorical" else "attributes"
    for r in train + dev:
        if getattr(r, needed) is None:
            raise ValueError(f"record {r.id!r}: missing {needed} label for task {cfg.task!r}")
    return train, dev


def _make_plan(cfg: TrainConfig, train: Sequence[UtteranceRecord], epoch: int) -> list[list[int]]:
    seed = sampling.epoch_seed(cfg.seed, epoch)
    if cfg.sampler == "balanced":
        for r in train:
            if r.emotion is None:
                raise ValueError("balanced sampler requires emotion labels on train records")
        labels = [code_to_index(r.emotion) for r in train]
        plan = sampling.balanced_batches(labels, cfg.batch_size, seed)
    else:
        plan = sampling.shuffled_batches(len(train), cfg.batch_size, seed)
    if cfg.task == "attributes" and cfg.loss == "ccc_loss":
        # CCC is undefined for single samples; a trailing singleton is dropped
        plan = [b for b in plan if len(b) >= 2]
    return plan


def _categorical_loss_fn(cfg: TrainConfig, train: Sequence[UtteranceRecord]) -> Callable:
    if cfg.loss == "wce":
        counts = np.zeros(8, dtype=np.int64)
        for r in train:
            counts[code_to_index(r.emotion)] += 1
        weights = losses.class_weights_from_counts(counts)
        return lambda logits, targets: losses.weighted_cross_entropy(logits, targets, weights)
    focal_cfg = losses.FocalConfig(gamma=cfg.focal_gamma)
    return lambda logits, targets: losses.focal_loss(logits, targets, focal_cfg)


def _batch_loss(
    cfg: TrainConfig, net: Model, batch: Sequence[UtteranceRecord], cat_loss: Callable | None
) -> nm.Tensor:
    outputs = net.forward(batch)
    if cfg.task == "categorical":
        targets = [code_to_index(r.emotion) for r in batch]
        return cat_loss(outputs, targets)
    truth = np.array([r.attributes for r in batch])
    if cfg.loss == "mse":
        return losses.mse_loss(outputs, truth)
    return losses.ccc_loss(outputs, truth)


def _eval_dev(
    task: str, net: Model, dev: Sequence[UtteranceRecord], chunk: int
) -> dict[str, float]:
    outputs = [row for _, row in net.outputs(dev, chunk)]
    if task == "categorical":
        preds = [EMOTION_CODES[int(np.argmax(row))] for row in outputs]
        truth = [r.emotion for r in dev]
        rep = classification_metrics(preds, truth)
        return {"f1_macro": rep.f1_macro, "f1_micro": rep.f1_micro, "accuracy": rep.accuracy}
    pred = np.array(outputs)
    truth = np.array([r.attributes for r in dev])
    rep = attribute_metrics(pred, truth)
    return rep.to_dict()


def _selection_key(task: str) -> str:
    return "f1_macro" if task == "categorical" else "ccc_avg"


class TrainingError(RuntimeError):
    """A failure inside the epoch loop, located by stage, epoch and batch.

    Inputs are checked before the first epoch, so what fails in the loop is
    the run itself (a non-finite value, a degenerate batch), not its inputs.
    """


@contextmanager
def _failure_site(cfg: TrainConfig, epoch: int, where: str) -> Iterator[None]:
    """Locate a failure in the block.  numpy overflow, invalid and
    divide-by-zero results raise at the op that made them, so the first
    non-finite value fails here instead of printing a warning."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except (ValueError, ArithmeticError) as err:
        part = cfg.modality if cfg.stage == 1 else cfg.fusion
        raise TrainingError(
            f"stage-{cfg.stage} {part} training failed at epoch {epoch}, {where}: {err}"
        ) from err


def _run_epochs(
    cfg: TrainConfig,
    metadata: dict,
    params: nm.ParamStore,
    net: Model,
    train: Sequence[UtteranceRecord],
    dev: Sequence[UtteranceRecord],
    log_path=None,
) -> Checkpoint:
    """The checkpoint of the best dev epoch: ``metadata`` plus the selection
    and the epoch history."""
    cat_loss = _categorical_loss_fn(cfg, train) if cfg.task == "categorical" else None
    state = AdamState.for_params(params, params.trainable_names())
    key = _selection_key(cfg.task)
    best_state: dict[str, np.ndarray] | None = None
    best_dev: dict[str, float] | None = None
    best_epoch = -1
    history: list[dict] = []
    try:
        for epoch in range(cfg.epochs):
            plan = _make_plan(cfg, train, epoch)
            total = 0.0
            count = 0
            for step, batch_idx in enumerate(plan):
                batch = [train[i] for i in batch_idx]
                with _failure_site(cfg, epoch, f"batch {step}"):
                    loss = _batch_loss(cfg, net, batch, cat_loss)
                    nm.backward(loss, params)
                    grads = {name: params.grad(name) for name in state.names}
                    adam_step(params, grads, state, cfg.learning_rate)
                total += loss.item() * len(batch)
                count += len(batch)
            with _failure_site(cfg, epoch, "dev evaluation"):
                dev_metrics = _eval_dev(cfg.task, net, dev, cfg.batch_size)
            history.append({"epoch": epoch, "train_loss": total / count, "dev": dev_metrics})
            if best_dev is None or dev_metrics[key] > best_dev[key]:
                best_dev = dev_metrics
                best_epoch = epoch
                best_state = params.state_dict()
    except TrainingError:
        sys.stderr.write(_log_lines(history))  # the finished epochs, not lost with the run
        raise
    if log_path:
        with dataio.atomic_write(log_path) as f:
            f.write(_log_lines(history))
    metadata.update(best_epoch=best_epoch, dev_metrics=best_dev, history=history)
    return Checkpoint(tensors=best_state, metadata=metadata)


def _log_lines(history: Sequence[dict]) -> str:
    return "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in history)


# ---------------------------------------------------------------------------
# the model builder

def _encoder_cfgs(meta: dict) -> dict[str, model.EncoderCfg]:
    """Encoder configs by modality, from stage-1 or stage-2 metadata, each
    key checked as it is read."""
    if _meta_value(meta, "stage", (1, 2)) == 1:
        encoders = {_meta_value(meta, "modality", model.MODALITIES): "encoder"}
    else:
        encoders = {m: f"{m}_encoder" for m in model.MODALITIES}
    dims = ("frame_dim", "hidden_dim", "out_dim")
    return {m: model.EncoderCfg(m, *(_meta_value(meta, f"{enc}.{dim}") for dim in dims))
            for m, enc in encoders.items()}


def _is_encoder(name: str) -> bool:
    return name.partition(".")[0] in model.MODALITIES


def _modality_features(record: UtteranceRecord, modality: str) -> np.ndarray | None:
    return record.speech_frames if modality == "speech" else record.text_tokens


# the most bytes a grouped finiteness check copies into one temporary array
_CHECK_GROUP_BYTES = 128 * 1024


def _check_inputs(meta: dict, records: Sequence[UtteranceRecord]) -> None:
    """Reject records the model ``meta`` describes cannot read: a missing
    modality, a feature width other than the encoder's or a non-finite
    value.  Training calls this before the first epoch.

    Each modality is checked over groups of records first; if any check
    fails, the per-record loop runs and names the first bad record.
    """
    cfgs = _encoder_cfgs(meta)
    for modality, cfg in cfgs.items():
        if not _readable([_modality_features(r, modality) for r in records], cfg.frame_dim):
            _check_each(cfgs, records)


def _readable(feats: Sequence[np.ndarray | None], width: int) -> bool:
    """Whether every array is present, ``width`` wide and finite.  Finiteness
    is checked over groups of as many arrays as fit in ``_CHECK_GROUP_BYTES``
    at the largest one's size; when none fits twice, one array at a time,
    uncopied."""
    if any(f is None or f.shape[1] != width for f in feats):  # records are T x D with T >= 1
        return False
    step = max(1, _CHECK_GROUP_BYTES // max((f.nbytes for f in feats), default=1))
    groups = (feats[i:i + step] for i in range(0, len(feats), step))
    return all(np.isfinite(g[0] if step == 1 else np.concatenate(g)).all() for g in groups)


def _check_each(cfgs: Mapping[str, model.EncoderCfg], records: Sequence[UtteranceRecord]) -> None:
    """``_check_inputs`` one record at a time: raises for the first bad record."""
    for r in records:
        for modality, cfg in cfgs.items():
            feats = _modality_features(r, modality)
            if feats is None:
                if len(cfgs) == 2:
                    raise ValueError(f"record {r.id!r}: dual-modality model needs both feature sets")
                raise ValueError(f"record {r.id!r}: missing {modality} features")
            if feats.shape[1] != cfg.frame_dim:
                raise ValueError(
                    f"record {r.id!r}: expected T x {cfg.frame_dim} {modality} features, "
                    f"got {feats.shape}"
                )
            if not np.isfinite(feats).all():
                raise ValueError(f"record {r.id!r}: non-finite {modality} features")


# (encoder tensors' sha256, a chunk's record ids) -> the chunk's concat rows,
# shared by every model built inside a ``sharing_frozen_rows`` block
_shared_rows: ContextVar[dict | None] = ContextVar("serlab_frozen_rows", default=None)


@contextmanager
def sharing_frozen_rows() -> Iterator[None]:
    """Share concat fusion's frozen rows between every model built inside
    the block: a chunk of records is encoded once per pair of encoders, and
    each later run that reads the same chunk through the same encoders
    reuses its rows, bytes and all.

    Inside one block a record id names one record's features.  Blocks nest:
    an inner block keeps its own rows.
    """
    token = _shared_rows.set({})
    try:
        yield
    finally:
        _shared_rows.reset(token)


class FrozenRows:
    """Concat fusion's frozen part: the frozen encoders' B x F rows for a
    chunk of records, speech first, encoded only on a miss.

    Rows are kept by the encoder tensors' sha256 plus the chunk's exact
    record ids, never by record alone: a row's last bits depend on the chunk
    it was encoded in.  Inside a ``sharing_frozen_rows`` block the model
    keeps them in the block's store, otherwise in a store of its own.
    """

    def __init__(self, cfgs: Mapping[str, model.EncoderCfg], views: Mapping[str, dict]) -> None:
        self.cfgs, self.views = cfgs, views
        h = hashlib.sha256()
        for modality in model.MODALITIES:
            for name in sorted(views[modality]):
                data = views[modality][name].data
                h.update(f"{modality}.{name}{data.shape}".encode("utf-8"))
                h.update(data.tobytes())
        self.encoders = h.hexdigest()
        shared = _shared_rows.get()
        self.store = {} if shared is None else shared

    def __call__(self, records: Sequence[UtteranceRecord]) -> np.ndarray:
        key = (self.encoders, tuple(r.id for r in records))
        rows = self.store.get(key)
        if rows is None:
            parts = []
            for modality in model.MODALITIES:
                frames, segments = model.pack([_modality_features(r, modality) for r in records])
                parts.append(model.encoder_forward(self.cfgs[modality], self.views[modality],
                                                   frames, segments))
            rows = self.store[key] = nm.concat(parts, axis=1).data
            rows.flags.writeable = False  # read by every model that shares it
        return rows

    def by_id(
        self, splits: Sequence[Sequence[UtteranceRecord]], chunk: int
    ) -> Callable[[Sequence[UtteranceRecord]], np.ndarray]:
        """A frozen part that reads any batch of the ``splits``' records row
        by row, each row as encoded in its split's ``chunk``-record chunks."""
        rows: dict[str, np.ndarray] = {}
        for records in splits:
            for start in range(0, len(records), chunk):
                part = records[start:start + chunk]
                rows.update(zip((r.id for r in part), self(part)))
        return lambda records: np.stack([rows[r.id] for r in records])


@dataclass(frozen=True)
class Model:
    """A forward pass split where the graph starts.

    ``frozen(records)`` returns plain arrays for a batch; ``head`` builds one
    graph from them over the trainable or loaded parameters and returns
    B x out outputs.
    """

    frozen: Callable[[Sequence[UtteranceRecord]], object]
    head: Callable[[object], nm.Tensor]

    def forward(self, records: Sequence[UtteranceRecord]) -> nm.Tensor:
        return self.head(self.frozen(records))

    def outputs(
        self, records: Sequence[UtteranceRecord], chunk: int
    ) -> Iterator[tuple[UtteranceRecord, np.ndarray]]:
        """(record, output row) pairs, in order, one graph per ``chunk`` records."""
        for start in range(0, len(records), chunk):
            part = records[start:start + chunk]
            yield from zip(part, self.forward(part).data)


def build_model(meta: dict, params: nm.ParamStore) -> Model:
    """The model a checkpoint's metadata describes, over ``params``.

    Training and ``predict`` both build their forward pass here.  Stage 1
    freezes nothing, so its frozen part only picks each record's frames.  In
    stage 2 the frozen part runs the frozen encoders once per modality over
    the packed batch: for concat fusion the whole encoders, giving B x F
    rows, speech first, through a ``FrozenRows``; for cross-attention the
    frame layers, giving each modality's packed per-frame hiddens with their
    ``Segments``, speech first.  Records are assumed to pass ``_check_inputs``.
    """
    cfgs = _encoder_cfgs(meta)
    views = {modality: params.view(f"{modality}.") for modality in cfgs}
    activation, head_view = meta["config"]["activation"], params.view("head.")

    if meta["stage"] == 1:
        ((modality, enc_cfg),) = cfgs.items()

        def frozen(records: Sequence[UtteranceRecord]) -> list:
            return [_modality_features(r, modality) for r in records]

        def head(frames: Sequence[np.ndarray]) -> nm.Tensor:
            emb = model.encoder_forward(enc_cfg, views[modality], *model.pack(frames))
            return model.fusion_head_forward(activation, head_view, emb)

    elif meta["fusion"] == "concat":
        frozen = FrozenRows(cfgs, views)

        def head(rows: np.ndarray) -> nm.Tensor:
            return model.fusion_head_forward(activation, head_view, nm.Tensor(rows))

    else:
        fuse_view = params.view("fusion.")

        def frozen(records: Sequence[UtteranceRecord]) -> list:
            out = []
            for m in model.MODALITIES:
                frames, segments = model.pack([_modality_features(r, m) for r in records])
                out.append((model.frame_hidden(cfgs[m], views[m], frames).data, segments))
            return out

        def head(features: Sequence[tuple[np.ndarray, model.Segments]]) -> nm.Tensor:
            (hs, speech), (ht, text) = features
            fused = model.cross_attention_fuse(
                nm.Tensor(hs), nm.Tensor(ht), fuse_view, speech, text
            )
            return model.fusion_head_forward(activation, head_view, fused)

    return Model(frozen=frozen, head=head)


def _param_shapes(meta: dict) -> model.Shapes:
    """The shape of every tensor a checkpoint with metadata ``meta`` holds,
    by name, in the order training adds them: the encoders (which stage 2
    loads frozen from its stage-1 sources), stage 2's fusion projections,
    then the head.  Reads every metadata key the model builder and
    ``predict`` read, each checked as it is read."""
    cfgs = _encoder_cfgs(meta)
    out_dim = model.TASK_OUT_DIMS[_meta_value(meta, "task", model.TASKS)]
    _meta_value(meta, "config.activation", model.ACTIVATIONS)
    _meta_value(meta, "config.batch_size")
    parts = [(f"{modality}.", model.encoder_shapes(cfg)) for modality, cfg in cfgs.items()]
    head_in = sum(cfg.out_dim for cfg in cfgs.values())
    # only a two-encoder (stage-2) model has a fusion
    if len(cfgs) == 2 and _meta_value(meta, "fusion", model.FUSION_KINDS) == "cross_attention":
        head_in = _meta_value(meta, "attn_dim")
        parts.append(("fusion.", model.cross_attention_shapes(
            cfgs["speech"].hidden_dim, cfgs["text"].hidden_dim, head_in)))
    parts.append(("head.", model.head_shapes(head_in, out_dim)))
    return {prefix + name: shape for prefix, shapes in parts for name, shape in shapes.items()}


def _check_stage1_source(ckpt: Checkpoint, modality: str) -> None:
    meta = ckpt.metadata
    if meta["stage"] != 1:
        raise ValueError(
            f"stage-2 {modality} source must be a stage-1 checkpoint, got stage {meta['stage']}"
        )
    if meta["modality"] != modality:
        raise ValueError(f"expected a {modality} checkpoint, got modality {meta['modality']!r}")


# ---------------------------------------------------------------------------
# stage 1

def train_stage1(cfg: TrainConfig, records: Sequence[UtteranceRecord], log_path=None) -> Checkpoint:
    """Train one modality's encoder plus task head end-to-end."""
    if cfg.stage != 1:
        raise ValueError(f"train_stage1 requires cfg.stage == 1, got {cfg.stage}")
    train, dev = _split_records(records, cfg)
    modality = cfg.modality
    first = _modality_features(train[0], modality)
    if first is None:
        raise ValueError(f"record {train[0].id!r}: missing {modality} features")
    metadata = {
        "stage": 1,
        "modality": modality,
        "task": cfg.task,
        "seed": cfg.seed,
        "config": cfg.echo(),
        "encoder": {
            "frame_dim": first.shape[1], "hidden_dim": cfg.hidden_dim, "out_dim": cfg.out_dim,
        },
    }
    _check_inputs(metadata, train + dev)  # every record at the first one's width

    params = nm.ParamStore()
    rng = np.random.default_rng(cfg.seed)
    for name, arr in model.init_params(_param_shapes(metadata), rng).items():
        params.add(name, arr)

    return _run_epochs(cfg, metadata, params, build_model(metadata, params), train, dev, log_path)


# ---------------------------------------------------------------------------
# stage 2

def train_stage2(
    cfg: TrainConfig,
    speech_ckpt: Checkpoint,
    text_ckpt: Checkpoint,
    records: Sequence[UtteranceRecord],
    log_path=None,
) -> Checkpoint:
    """Train the fusion head on frozen stage-1 encoders.

    Encoder tensors are loaded untrainable and never touched by the
    optimizer; only head (and cross-attention projection) parameters move.
    Concat fusion encodes train and dev once, each in chunks of the batch
    size as dev evaluation chunks, and every step reads those rows; inside a
    ``sharing_frozen_rows`` block, a chunk another run encoded is not
    encoded again.
    """
    if cfg.stage != 2:
        raise ValueError(f"train_stage2 requires cfg.stage == 2, got {cfg.stage}")
    _check_stage1_source(speech_ckpt, "speech")
    _check_stage1_source(text_ckpt, "text")
    train, dev = _split_records(records, cfg)
    metadata = {
        "stage": 2,
        "task": cfg.task,
        "fusion": cfg.fusion,
        "seed": cfg.seed,
        "config": cfg.echo(),
        "speech_encoder": speech_ckpt.metadata["encoder"],
        "text_encoder": text_ckpt.metadata["encoder"],
        "attn_dim": cfg.attn_dim,
        "concat_order": list(model.MODALITIES),
        "sources": {"speech": speech_ckpt.content_id, "text": text_ckpt.content_id},
    }
    _check_inputs(metadata, train + dev)

    shapes = _param_shapes(metadata)
    sources = {"speech": speech_ckpt, "text": text_ckpt}
    params = nm.ParamStore()
    for name in filter(_is_encoder, shapes):
        params.add(name, sources[name.partition(".")[0]].tensors[name], trainable=False)
    fresh = {name: shape for name, shape in shapes.items() if not _is_encoder(name)}
    for name, arr in model.init_params(fresh, np.random.default_rng(cfg.seed)).items():
        params.add(name, arr)

    net = build_model(metadata, params)
    if cfg.fusion == "concat":
        net = replace(net, frozen=net.frozen.by_id((train, dev), cfg.batch_size))
    return _run_epochs(cfg, metadata, params, net, train, dev, log_path)


# ---------------------------------------------------------------------------
# inference

def predict(
    ckpt: Checkpoint,
    records: Sequence[UtteranceRecord],
    clamp: bool = True,
) -> PredictionSet:
    """Per-utterance labels or attribute triples, in input order.

    Records are scored in chunks of the checkpoint's training batch size.
    """
    params = nm.ParamStore()
    for name, arr in ckpt.tensors.items():
        params.add(name, arr, trainable=False)
    net = build_model(ckpt.metadata, params)
    _check_inputs(ckpt.metadata, records)
    task = ckpt.metadata["task"]
    preds = PredictionSet()
    for record, out in net.outputs(records, ckpt.metadata["config"]["batch_size"]):
        if task == "categorical":
            preds.add_label(record.id, EMOTION_CODES[int(np.argmax(out))], logits=out.copy())
        else:
            triple = tuple(float(v) for v in out)
            preds.add_attributes(record.id, clamp_attributes(triple)[0] if clamp else triple)
    return preds

"""Pooling layers, toy modality encoders, and the two fusion-head variants.

Encoders are deliberately shallow: one affine+Mish frame layer, the
modality's pooling (attentive statistics for speech, mean for text), and an
affine projection.  That is enough structure to exercise the two-stage
training scheme without transformer depth.

A batch runs as one packed sequence: the frames of all its utterances in
one (sum T) x D matrix plus their ``Segments`` (lengths and offsets).  Each
fully connected layer is one ``dense`` node, pooling is one ragged op
(``segment_stat_pool`` or ``segment_mean``) and cross-attention one
``segment_attention``, so a stage-1 step's graph does not grow with the
batch.  A single utterance is a one-segment batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import numerics as nm
from .numerics import VAR_EPS, Tensor

FUSION_KINDS = ("concat", "cross_attention")
ACTIVATIONS = ("mish", "relu")
TASKS = ("categorical", "attributes")
MODALITIES = ("speech", "text")

TASK_OUT_DIMS = {"categorical": 8, "attributes": 3}


@dataclass(frozen=True)
class EncoderCfg:
    """A modality's encoder: ``frame_dim``-wide input frames (token
    embeddings for text), a ``hidden_dim`` frame layer and an ``out_dim``
    embedding."""

    modality: str
    frame_dim: int
    hidden_dim: int
    out_dim: int

    def __post_init__(self) -> None:
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")
        for field in ("frame_dim", "hidden_dim", "out_dim"):
            if getattr(self, field) < 1:
                raise ValueError(f"EncoderCfg.{field} must be >= 1")

    @property
    def attentive(self) -> bool:
        """Speech pools by attentive statistics, text by the mean."""
        return self.modality == "speech"

    @property
    def pooled_dim(self) -> int:
        # attentive statistics pooling concatenates mean and std
        return 2 * self.hidden_dim if self.attentive else self.hidden_dim


# ---------------------------------------------------------------------------
# packed batches

@dataclass(frozen=True, eq=False)
class Segments:
    """Layout of a packed batch: B variable-length sequences stacked into one
    (sum T) x D matrix, sequence b in the ``lengths[b]`` rows from
    ``offsets[b]`` on."""

    lengths: np.ndarray
    offsets: np.ndarray

    @classmethod
    def of(cls, lengths: Sequence[int]) -> "Segments":
        n = np.asarray(lengths, dtype=np.int64)
        if n.ndim != 1 or n.size == 0:
            raise ValueError("packed batch: no sequences")
        if np.any(n < 1):
            raise ValueError(f"packed batch: empty sequence at position {int(np.argmin(n))}")
        return cls(lengths=n, offsets=np.cumsum(n) - n)


def pack(seqs: Sequence[np.ndarray]) -> tuple[np.ndarray, Segments]:
    """One (sum T) x D float64 matrix and its layout from B sequences of
    T_b x D rows.  Records read from FEMB are float32; the cast here is
    exact, so a batch holds the same values whatever its records' dtype."""
    return np.concatenate(seqs, axis=0, dtype=np.float64), Segments.of([len(s) for s in seqs])


# ---------------------------------------------------------------------------
# pooling

def attentive_stat_pool(H: Tensor, W: Tensor, b: Tensor, v: Tensor, segments: Segments) -> Tensor:
    """Attention-weighted mean and std over each sequence's frames,
    concatenated: B x 2D for a packed H.

    Frame t's score is v . tanh(W h_t + b), and its weight the softmax of
    the scores within its sequence.  The variance is clamped at zero and
    padded with VAR_EPS before the square root so constant sequences stay
    differentiable.
    """
    scores = nm.dense(H, W, b, "tanh") @ v
    return nm.segment_stat_pool(H, scores, segments.offsets, segments.lengths)


def mean_pool(H: Tensor, segments: Segments) -> Tensor:
    """Mean over each sequence's frames: B x D for a packed H."""
    return nm.segment_mean(H, segments.offsets, segments.lengths)


# ---------------------------------------------------------------------------
# parameters: one ordered name -> shape table per model part

Shapes = dict[str, tuple[int, ...]]


def encoder_shapes(cfg: EncoderCfg) -> Shapes:
    """An encoder's parameters, keyed without a modality prefix."""
    h = cfg.hidden_dim
    shapes = {"frame.W": (cfg.frame_dim, h), "frame.b": (h,)}
    if cfg.attentive:
        shapes.update({"att.W": (h, h), "att.b": (h,), "att.v": (h,)})
    shapes.update({"proj.W": (cfg.pooled_dim, cfg.out_dim), "proj.b": (cfg.out_dim,)})
    return shapes


def head_shapes(in_dim: int, out_dim: int) -> Shapes:
    return {"fc1.W": (in_dim, in_dim), "fc1.b": (in_dim,),
            "fc2.W": (in_dim, out_dim), "fc2.b": (out_dim,)}


def cross_attention_shapes(speech_dim: int, text_dim: int, attn_dim: int) -> Shapes:
    return {"q.W": (text_dim, attn_dim),
            "k.W": (speech_dim, attn_dim), "v.W": (speech_dim, attn_dim)}


def init_params(shapes: Shapes, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Fresh values for ``shapes``, drawn in its order: biases (``.b``) are
    zeros, every other tensor U(-1/sqrt(fan_in), 1/sqrt(fan_in)) with fan_in
    its first dim."""
    params: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        if name.endswith(".b"):
            params[name] = np.zeros(shape)
        else:
            bound = 1.0 / math.sqrt(shape[0])
            params[name] = rng.uniform(-bound, bound, size=shape)
    return params


# ---------------------------------------------------------------------------
# forward passes

def frame_hidden(cfg: EncoderCfg, p: Mapping[str, Tensor], frames) -> Tensor:
    """Per-frame affine+Mish features (T x hidden, or sum T x hidden for a
    packed batch), before any pooling.  Frames are not checked here: callers
    check inputs first, and ``mish`` rejects what a non-finite frame gives."""
    x = frames if isinstance(frames, Tensor) else Tensor(frames)
    if x.data.ndim != 2 or x.shape[1] != cfg.frame_dim:
        raise ValueError(
            f"encoder_forward: expected T x {cfg.frame_dim} features, got shape {x.shape}"
        )
    return nm.dense(x, p["frame.W"], p["frame.b"], "mish")


def encoder_forward(
    cfg: EncoderCfg, p: Mapping[str, Tensor], frames, segments: Segments
) -> Tensor:
    """B x out fixed-size embeddings for the packed frames of a batch of
    variable-length sequences laid out by ``segments``."""
    h = frame_hidden(cfg, p, frames)
    if cfg.attentive:
        pooled = attentive_stat_pool(h, p["att.W"], p["att.b"], p["att.v"], segments)
    else:
        pooled = mean_pool(h, segments)
    return nm.dense(pooled, p["proj.W"], p["proj.b"])


def fusion_head_forward(activation: str, p: Mapping[str, Tensor], fused: Tensor) -> Tensor:
    """Two fully connected layers: F -> F with ``activation`` (mish or relu),
    then F -> out; a B x F input gives B x out.  ``TrainConfig`` and the
    checkpoint metadata check the activation; ``dense`` rejects an unknown
    one."""
    h = nm.dense(fused, p["fc1.W"], p["fc1.b"], activation)
    return nm.dense(h, p["fc2.W"], p["fc2.b"])


def cross_attention_fuse(
    Hs: Tensor, Ht: Tensor, p: Mapping[str, Tensor], speech: Segments, text: Segments
) -> Tensor:
    """Single-head scaled dot-product attention, text queries speech, over a
    packed batch: B x attn for packed speech ``Hs`` and text ``Ht`` laid out
    by ``speech`` and ``text``.

    Keys and values come from each utterance's speech frames, queries from
    its text tokens; the attended rows are mean-pooled to one vector.  The
    projections run once per batch, with the 1/sqrt(d) scale folded into the
    query projection, and ``segment_attention`` attends within each
    utterance, so no padded or block-diagonal score matrix is built.
    """
    attn_dim = p["q.W"].shape[1]
    q = Ht @ (p["q.W"] / math.sqrt(attn_dim))
    k = Hs @ p["k.W"]
    v = Hs @ p["v.W"]
    return nm.segment_attention(q, k, v, text.offsets, text.lengths, speech.offsets, speech.lengths)

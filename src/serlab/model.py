"""Pooling layers, toy modality encoders, and the two fusion-head variants.

Encoders are deliberately shallow: one affine+Mish frame layer, the
modality's pooling (attentive statistics for speech, mean for text), and an
affine projection.  That is enough structure to exercise the two-stage
training scheme without transformer depth.

A batch runs as one packed sequence: the frames of all its utterances in
one (sum T) x D matrix plus their ``Segments``, with pooling written as
products with the constant segment-indicator matrix and cross-attention as
one ragged attention op.  A single utterance is a one-segment batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import numerics as nm
from .numerics import Tensor

VAR_EPS = 1e-9

FUSION_KINDS = ("concat", "cross_attention")
ACTIVATIONS = ("mish", "relu")
TASKS = ("categorical", "attributes")

TASK_OUT_DIMS = {"categorical": 8, "attributes": 3}


@dataclass(frozen=True)
class SpeechEncoderCfg:
    frame_dim: int
    hidden_dim: int
    out_dim: int

    def __post_init__(self) -> None:
        for field in ("frame_dim", "hidden_dim", "out_dim"):
            if getattr(self, field) < 1:
                raise ValueError(f"SpeechEncoderCfg.{field} must be >= 1")

    @property
    def pooled_dim(self) -> int:
        # attentive statistics pooling concatenates mean and std
        return 2 * self.hidden_dim


@dataclass(frozen=True)
class TextEncoderCfg:
    token_dim: int
    hidden_dim: int
    out_dim: int

    def __post_init__(self) -> None:
        for field in ("token_dim", "hidden_dim", "out_dim"):
            if getattr(self, field) < 1:
                raise ValueError(f"TextEncoderCfg.{field} must be >= 1")

    @property
    def pooled_dim(self) -> int:
        return self.hidden_dim


EncoderCfg = SpeechEncoderCfg | TextEncoderCfg


# ---------------------------------------------------------------------------
# packed batches

@dataclass(frozen=True, eq=False)
class Segments:
    """Layout of a packed batch: B variable-length sequences stacked into one
    (sum T) x D matrix, sequence b in the rows from ``offsets[b]`` on.

    ``matrix`` is the constant 0/1 (B x sum T) segment indicator, so
    ``matrix @ X`` sums each sequence's rows of X.
    """

    lengths: np.ndarray
    offsets: np.ndarray
    matrix: np.ndarray

    @classmethod
    def of(cls, lengths: Sequence[int]) -> "Segments":
        n = np.asarray(lengths, dtype=np.int64)
        if n.ndim != 1 or n.size == 0:
            raise ValueError("packed batch: no sequences")
        if np.any(n < 1):
            raise ValueError(f"packed batch: empty sequence at position {int(np.argmin(n))}")
        matrix = np.zeros((n.size, int(n.sum())))
        matrix[np.repeat(np.arange(n.size), n), np.arange(matrix.shape[1])] = 1.0
        return cls(lengths=n, offsets=np.cumsum(n) - n, matrix=matrix)

    @property
    def total(self) -> int:
        return self.matrix.shape[1]

    def segment_max(self, x: np.ndarray) -> np.ndarray:
        """Each entry of the packed vector ``x`` replaced by its sequence's max."""
        return np.repeat(np.maximum.reduceat(x, self.offsets), self.lengths)


def pack(seqs: Sequence[np.ndarray]) -> tuple[np.ndarray, Segments]:
    """One (sum T) x D matrix and its layout from B sequences of T_b x D rows."""
    return np.concatenate(seqs, axis=0), Segments.of([len(s) for s in seqs])


def _check_layout(H: Tensor, segments: Segments, op: str) -> None:
    if H.data.ndim != 2:
        raise ValueError(f"{op}: expected T x D input, got {H.shape}")
    if segments.total != H.shape[0]:
        raise ValueError(f"{op}: {H.shape[0]} rows for a packed batch of {segments.total}")


# ---------------------------------------------------------------------------
# pooling

def attention_weights(
    H: Tensor, W: Tensor, b: Tensor, v: Tensor, k: Tensor, segments: Segments
) -> Tensor:
    """Per-frame attention weights from scores v . tanh(W h_t + b) + k,
    a softmax within each sequence.

    Scores are shifted by their sequence's max, held constant; each frame's
    denominator is its sequence's sum, spread back over the frames by
    ``(S @ e) @ S``.
    """
    _check_layout(H, segments, "attention_weights")
    scores = nm.tanh(H @ W + b) @ v + k
    e = nm.exp(scores - nm.Tensor(segments.segment_max(scores.data)))
    S = nm.Tensor(segments.matrix)
    return e / ((S @ e) @ S)


def attentive_stat_pool(
    H: Tensor, W: Tensor, b: Tensor, v: Tensor, k: Tensor, segments: Segments
) -> Tensor:
    """Attention-weighted mean and std over each sequence's frames,
    concatenated: B x 2D for a packed H.

    The variance is clamped at zero and padded with VAR_EPS before the square
    root so constant sequences stay differentiable.
    """
    _check_layout(H, segments, "attentive_stat_pool")
    alpha = attention_weights(H, W, b, v, k, segments)
    A = nm.Tensor(segments.matrix) * alpha  # row b holds sequence b's weights
    mu = A @ H
    m2 = A @ nm.square(H)
    sigma = nm.sqrt(nm.relu(m2 - nm.square(mu)) + VAR_EPS)
    return nm.concat([mu, sigma], axis=1)


def mean_pool(H: Tensor, segments: Segments) -> Tensor:
    """Mean over each sequence's frames: B x D for a packed H."""
    _check_layout(H, segments, "mean_pool")
    return nm.Tensor(segments.matrix / segments.lengths[:, None]) @ H


# ---------------------------------------------------------------------------
# parameter initialization

def _affine(rng: np.random.Generator, fan_in: int, fan_out: int) -> tuple[np.ndarray, np.ndarray]:
    bound = 1.0 / math.sqrt(fan_in)
    w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    return w, np.zeros(fan_out)


def init_encoder_params(cfg: EncoderCfg, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Fresh encoder parameters, keyed without a modality prefix."""
    in_dim = cfg.frame_dim if isinstance(cfg, SpeechEncoderCfg) else cfg.token_dim
    params: dict[str, np.ndarray] = {}
    params["frame.W"], params["frame.b"] = _affine(rng, in_dim, cfg.hidden_dim)
    if isinstance(cfg, SpeechEncoderCfg):
        params["att.W"], params["att.b"] = _affine(rng, cfg.hidden_dim, cfg.hidden_dim)
        bound = 1.0 / math.sqrt(cfg.hidden_dim)
        params["att.v"] = rng.uniform(-bound, bound, size=cfg.hidden_dim)
        params["att.k"] = np.zeros(1)
    params["proj.W"], params["proj.b"] = _affine(rng, cfg.pooled_dim, cfg.out_dim)
    return params


def encoder_param_names(cfg: EncoderCfg) -> tuple[str, ...]:
    """The keys of ``init_encoder_params``, in order, without drawing values."""
    attention = ("att.W", "att.b", "att.v", "att.k") if isinstance(cfg, SpeechEncoderCfg) else ()
    return ("frame.W", "frame.b", *attention, "proj.W", "proj.b")


def init_head_params(in_dim: int, out_dim: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    params: dict[str, np.ndarray] = {}
    params["fc1.W"], params["fc1.b"] = _affine(rng, in_dim, in_dim)
    params["fc2.W"], params["fc2.b"] = _affine(rng, in_dim, out_dim)
    return params


def init_cross_attention_params(
    speech_dim: int, text_dim: int, attn_dim: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    params: dict[str, np.ndarray] = {}
    params["q.W"], _ = _affine(rng, text_dim, attn_dim)
    params["k.W"], _ = _affine(rng, speech_dim, attn_dim)
    params["v.W"], _ = _affine(rng, speech_dim, attn_dim)
    return params


# ---------------------------------------------------------------------------
# forward passes

def frame_hidden(cfg: EncoderCfg, p: Mapping[str, Tensor], frames) -> Tensor:
    """Per-frame affine+Mish features (T x hidden, or sum T x hidden for a
    packed batch), before any pooling."""
    x = frames if isinstance(frames, Tensor) else nm.tensor(frames)
    in_dim = cfg.frame_dim if isinstance(cfg, SpeechEncoderCfg) else cfg.token_dim
    if x.data.ndim != 2 or x.shape[1] != in_dim:
        raise ValueError(
            f"encoder_forward: expected T x {in_dim} features, got shape {x.shape}"
        )
    return nm.mish(x @ p["frame.W"] + p["frame.b"])


def encoder_forward(
    cfg: EncoderCfg, p: Mapping[str, Tensor], frames, segments: Segments
) -> Tensor:
    """B x out fixed-size embeddings for the packed frames of a batch of
    variable-length sequences laid out by ``segments``."""
    h = frame_hidden(cfg, p, frames)
    if isinstance(cfg, SpeechEncoderCfg):
        pooled = attentive_stat_pool(h, p["att.W"], p["att.b"], p["att.v"], p["att.k"], segments)
    else:
        pooled = mean_pool(h, segments)
    return pooled @ p["proj.W"] + p["proj.b"]


def fusion_head_forward(activation: str, p: Mapping[str, Tensor], fused: Tensor) -> Tensor:
    """Two fully connected layers: F -> F with ``activation`` (mish or relu),
    then F -> out; a B x F input gives B x out."""
    if activation == "mish":
        act = nm.mish
    elif activation == "relu":
        act = nm.relu
    else:
        raise ValueError(f"unknown activation {activation!r}")
    h = act(fused @ p["fc1.W"] + p["fc1.b"])
    return h @ p["fc2.W"] + p["fc2.b"]


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
    _check_layout(Hs, speech, "cross_attention_fuse")
    _check_layout(Ht, text, "cross_attention_fuse")
    attn_dim = p["q.W"].shape[1]
    q = Ht @ (p["q.W"] / math.sqrt(attn_dim))
    k = Hs @ p["k.W"]
    v = Hs @ p["v.W"]
    return nm.segment_attention(q, k, v, text.offsets, text.lengths, speech.offsets, speech.lengths)

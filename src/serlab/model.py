"""Pooling layers, toy modality encoders, and the two fusion-head variants.

Encoders are deliberately shallow: one affine+Mish frame layer, the
modality's pooling (attentive statistics for speech, mean for text), and an
affine projection.  That is enough structure to exercise the two-stage
training scheme without transformer depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

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


@dataclass(frozen=True)
class FusionHeadCfg:
    fusion: str
    activation: str
    task: str

    def __post_init__(self) -> None:
        if self.fusion not in FUSION_KINDS:
            raise ValueError(f"unknown fusion kind {self.fusion!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")

    @property
    def out_dim(self) -> int:
        return TASK_OUT_DIMS[self.task]


EncoderCfg = SpeechEncoderCfg | TextEncoderCfg


# ---------------------------------------------------------------------------
# pooling

def attention_weights(H: Tensor, W: Tensor, b: Tensor, v: Tensor, k: Tensor) -> Tensor:
    """Per-frame attention weights from scores v . tanh(W h_t + b) + k."""
    if H.data.ndim != 2:
        raise ValueError(f"attention_weights: expected T x D input, got {H.shape}")
    if H.shape[0] < 1:
        raise ValueError("attention_weights: empty sequence")
    scores = nm.tanh(H @ W + b) @ v + k
    return nm.softmax(scores, axis=0)


def attentive_stat_pool(H: Tensor, W: Tensor, b: Tensor, v: Tensor, k: Tensor) -> Tensor:
    """Attention-weighted mean and std over frames, concatenated.

    The variance is clamped at zero and padded with VAR_EPS before the
    square root so constant sequences stay differentiable.
    """
    alpha = attention_weights(H, W, b, v, k)
    mu = alpha @ H
    m2 = alpha @ nm.square(H)
    sigma = nm.sqrt(nm.relu(m2 - nm.square(mu)) + VAR_EPS)
    return nm.concat([mu, sigma])


def mean_pool(H: Tensor) -> Tensor:
    if H.data.ndim != 2:
        raise ValueError(f"mean_pool: expected T x D input, got {H.shape}")
    if H.shape[0] < 1:
        raise ValueError("mean_pool: empty sequence")
    return H.mean(axis=0)


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
    """Per-frame affine+Mish features (T x hidden), before any pooling."""
    x = frames if isinstance(frames, Tensor) else nm.tensor(frames)
    in_dim = cfg.frame_dim if isinstance(cfg, SpeechEncoderCfg) else cfg.token_dim
    if x.data.ndim != 2 or x.shape[1] != in_dim:
        raise ValueError(
            f"encoder_forward: expected T x {in_dim} features, got shape {x.shape}"
        )
    return nm.mish(x @ p["frame.W"] + p["frame.b"])


def encoder_forward(cfg: EncoderCfg, p: Mapping[str, Tensor], frames) -> Tensor:
    """Fixed-size embedding for a variable-length frame sequence."""
    h = frame_hidden(cfg, p, frames)
    if isinstance(cfg, SpeechEncoderCfg):
        pooled = attentive_stat_pool(h, p["att.W"], p["att.b"], p["att.v"], p["att.k"])
    else:
        pooled = mean_pool(h)
    return pooled @ p["proj.W"] + p["proj.b"]


def concat_fuse(a: Tensor, b: Tensor) -> Tensor:
    """Fused vector, speech first then text; order is fixed package-wide."""
    for name, t in (("first", a), ("second", b)):
        if t.data.ndim != 1:
            raise ValueError(f"concat_fuse: {name} input must be 1-D, got {t.shape}")
        if t.shape[0] < 1:
            raise ValueError(f"concat_fuse: {name} input is empty")
    return nm.concat([a, b])


def fusion_head_forward(cfg: FusionHeadCfg, p: Mapping[str, Tensor], fused: Tensor) -> Tensor:
    """Two fully connected layers: F -> F with activation, then F -> out."""
    if cfg.activation == "mish":
        act = nm.mish
    elif cfg.activation == "relu":
        act = nm.relu
    else:
        raise ValueError(f"unknown activation {cfg.activation!r}")
    h = act(fused @ p["fc1.W"] + p["fc1.b"])
    return h @ p["fc2.W"] + p["fc2.b"]


def cross_attention_fuse(Hs: Tensor, Ht: Tensor, p: Mapping[str, Tensor]) -> Tensor:
    """Single-head scaled dot-product attention, text queries speech.

    Keys and values come from the speech frames, queries from the text
    tokens; the attended rows are mean-pooled to one vector.
    """
    for name, t in (("speech", Hs), ("text", Ht)):
        if t.data.ndim != 2:
            raise ValueError(f"cross_attention_fuse: {name} input must be 2-D, got {t.shape}")
        if t.shape[0] < 1:
            raise ValueError(f"cross_attention_fuse: empty {name} sequence")
    attn_dim = p["q.W"].shape[1]
    q = Ht @ p["q.W"]
    k = Hs @ p["k.W"]
    v = Hs @ p["v.W"]
    scores = (q @ k.T) / math.sqrt(attn_dim)
    weights = nm.softmax(scores, axis=1)
    return (weights @ v).mean(axis=0)

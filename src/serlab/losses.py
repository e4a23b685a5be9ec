"""Class-imbalance losses and the concordance correlation coefficient.

Weighted cross-entropy and focal loss cover the categorical task; CCC is
provided both as a plain float metric and as a differentiable loss for the
attribute task (MSE too, since the analysis procedures use it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import numerics as nm
from .numerics import CCC_DEGENERATE_EPS, Tensor

NUM_CLASSES = 8


@dataclass(frozen=True)
class ClassWeights:
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (NUM_CLASSES,):
            raise ValueError(f"ClassWeights: expected {NUM_CLASSES} entries, got shape {w.shape}")
        if not np.all(np.isfinite(w) & (w > 0.0)):
            raise ValueError("ClassWeights: weights must be finite and strictly positive")
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls) -> "ClassWeights":
        return cls(np.ones(NUM_CLASSES))


@dataclass(frozen=True)
class FocalConfig:
    gamma: float = 2.0
    alpha: np.ndarray = field(default_factory=lambda: np.ones(NUM_CLASSES))

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma < np.inf:
            raise ValueError(f"FocalConfig: gamma must be finite and >= 0, got {self.gamma}")
        a = np.asarray(self.alpha, dtype=np.float64)
        if a.shape != (NUM_CLASSES,):
            raise ValueError(f"FocalConfig: alpha must have {NUM_CLASSES} entries")
        if not np.all(np.isfinite(a) & (a > 0.0)):
            raise ValueError("FocalConfig: alpha entries must be finite and strictly positive")
        object.__setattr__(self, "alpha", a)


def class_weights_from_counts(counts: Sequence[int]) -> ClassWeights:
    """Inverse-frequency weights w_c = N / (K * count_c)."""
    c = np.asarray(counts)
    if c.shape != (NUM_CLASSES,):
        raise ValueError(f"expected {NUM_CLASSES} class counts, got shape {c.shape}")
    if np.any(c < 1):
        absent = int(np.argmax(c < 1))
        raise ValueError(f"class {absent} absent from training split")
    total = float(c.sum())
    return ClassWeights(total / (NUM_CLASSES * c.astype(np.float64)))


def _validate_targets(targets: Sequence[int], batch: int) -> np.ndarray:
    t = np.asarray(targets)
    if t.shape != (batch,):
        raise ValueError(f"targets: expected {batch} entries, got shape {t.shape}")
    if t.size and (t.min() < 0 or t.max() >= NUM_CLASSES):
        bad = int(t[(t < 0) | (t >= NUM_CLASSES)][0])
        raise ValueError(f"class id {bad} out of range [0, {NUM_CLASSES})")
    return t.astype(np.int64)


def _check_logits(logits: Tensor, targets: Sequence[int]) -> np.ndarray:
    if logits.data.ndim != 2 or logits.shape[1] != NUM_CLASSES:
        raise ValueError(f"logits: expected B x {NUM_CLASSES}, got shape {logits.shape}")
    return _validate_targets(targets, logits.shape[0])


def weighted_cross_entropy(logits: Tensor, targets: Sequence[int], weights: ClassWeights) -> Tensor:
    """Per-class weighted CE, normalized by the total weight (weighted mean)."""
    t = _check_logits(logits, targets)
    w = weights.weights[t]
    return (nm.focal_terms(logits, t, 0.0) * w).sum() / float(w.sum())


def focal_loss(logits: Tensor, targets: Sequence[int], cfg: FocalConfig) -> Tensor:
    """Mean of alpha_t * (1 - p_t)^gamma * (-log p_t) over the batch."""
    t = _check_logits(logits, targets)
    per_sample = nm.focal_terms(logits, t, cfg.gamma) * cfg.alpha[t]
    return per_sample.sum() / float(t.size)


# ---------------------------------------------------------------------------
# concordance correlation coefficient

def _ccc_moments(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """Population (1/N) moments along the last axis: cov, var_x, var_y and
    the mean gap."""
    n = x.shape[-1]
    mx, my = x.sum(axis=-1, keepdims=True) / n, y.sum(axis=-1, keepdims=True) / n
    xc, yc = x - mx, y - my
    return ((xc * yc).sum(axis=-1) / n, (xc * xc).sum(axis=-1) / n,
            (yc * yc).sum(axis=-1) / n, (mx - my)[..., 0])


def ccc(pred: Sequence[float], truth: Sequence[float]) -> float:
    """Lin's concordance: 2*cov / (var_pred + var_truth + mean_gap^2)."""
    x = np.asarray(pred, dtype=np.float64)
    y = np.asarray(truth, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"ccc: inputs must be equal-length 1-D, got {x.shape} and {y.shape}")
    if x.size < 2:
        raise ValueError("ccc: need at least 2 samples")
    cov, vx, vy, gap = (float(m) for m in _ccc_moments(x, y))
    denom = vx + vy + gap * gap
    if denom < CCC_DEGENERATE_EPS:
        raise ValueError("degenerate CCC: both variances and mean gap are ~0")
    return 2.0 * cov / denom


def ccc_loss(pred: Tensor, truth: np.ndarray) -> Tensor:
    """1 - mean CCC over the three attribute columns, differentiable."""
    y = np.asarray(truth, dtype=np.float64)
    if pred.data.ndim != 2 or pred.shape[1] != 3 or y.shape != pred.data.shape:
        raise ValueError(
            f"ccc_loss: expected matching B x 3 inputs, got {pred.shape} and {y.shape}"
        )
    if pred.shape[0] < 2:
        raise ValueError("ccc_loss: need at least 2 samples")
    return 1.0 - nm.ccc_columns(pred, y).sum() / 3.0


def mse_loss(pred: Tensor, truth: np.ndarray) -> Tensor:
    y = np.asarray(truth, dtype=np.float64)
    if y.shape != pred.data.shape:
        raise ValueError(f"mse_loss: shape mismatch {pred.shape} vs {y.shape}")
    return nm.square(pred - nm.tensor(y)).mean()

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
from .numerics import Tensor

NUM_CLASSES = 8

CCC_DEGENERATE_EPS = 1e-15


@dataclass(frozen=True)
class ClassWeights:
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (NUM_CLASSES,):
            raise ValueError(f"ClassWeights: expected {NUM_CLASSES} entries, got shape {w.shape}")
        if not np.all(w > 0.0):
            raise ValueError("ClassWeights: weights must be strictly positive")
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls) -> "ClassWeights":
        return cls(np.ones(NUM_CLASSES))


@dataclass(frozen=True)
class FocalConfig:
    gamma: float = 2.0
    alpha: np.ndarray = field(default_factory=lambda: np.ones(NUM_CLASSES))

    def __post_init__(self) -> None:
        if self.gamma < 0.0:
            raise ValueError("FocalConfig: gamma must be >= 0")
        a = np.asarray(self.alpha, dtype=np.float64)
        if a.shape != (NUM_CLASSES,):
            raise ValueError(f"FocalConfig: alpha must have {NUM_CLASSES} entries")
        if not np.all(a > 0.0):
            raise ValueError("FocalConfig: alpha entries must be strictly positive")
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


def _target_log_probs(logits: Tensor, targets: np.ndarray) -> Tensor:
    """log p_t = z_t - m - log sum exp(z - m), with m the row max held
    constant: finite however far apart the logits are."""
    onehot = np.zeros((targets.size, NUM_CLASSES))
    onehot[np.arange(targets.size), targets] = 1.0
    shifted = logits - nm.Tensor(logits.data.max(axis=1, keepdims=True))
    log_norm = nm.log(nm.exp(shifted).sum(axis=1))  # the sum is >= 1
    return (shifted * nm.tensor(onehot)).sum(axis=1) - log_norm


def weighted_cross_entropy(logits: Tensor, targets: Sequence[int], weights: ClassWeights) -> Tensor:
    """Per-class weighted CE, normalized by the total weight (weighted mean)."""
    if logits.data.ndim != 2 or logits.shape[1] != NUM_CLASSES:
        raise ValueError(f"logits: expected B x {NUM_CLASSES}, got shape {logits.shape}")
    t = _validate_targets(targets, logits.shape[0])
    nll = -_target_log_probs(logits, t)
    w = weights.weights[t]
    return (nll * nm.tensor(w)).sum() / nm.tensor(float(w.sum()))


def focal_loss(logits: Tensor, targets: Sequence[int], cfg: FocalConfig) -> Tensor:
    """Mean of alpha_t * (1 - p_t)^gamma * (-log p_t) over the batch."""
    if logits.data.ndim != 2 or logits.shape[1] != NUM_CLASSES:
        raise ValueError(f"logits: expected B x {NUM_CLASSES}, got shape {logits.shape}")
    t = _validate_targets(targets, logits.shape[0])
    log_pt = _target_log_probs(logits, t)
    nll = -log_pt
    pt = nm.exp(log_pt)
    modulator = nm.powf(1.0 - pt, cfg.gamma)
    a = cfg.alpha[t]
    per_sample = nll * modulator * nm.tensor(a)
    return per_sample.sum() / nm.tensor(float(t.size))


# ---------------------------------------------------------------------------
# concordance correlation coefficient

def _ccc_moments(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    # population (1/N) moments throughout
    mx, my = float(x.mean()), float(y.mean())
    vx = float(np.mean((x - mx) ** 2))
    vy = float(np.mean((y - my) ** 2))
    cov = float(np.mean((x - mx) * (y - my)))
    return cov, vx, vy, mx - my


def ccc(pred: Sequence[float], truth: Sequence[float]) -> float:
    """Lin's concordance: 2*cov / (var_pred + var_truth + mean_gap^2)."""
    x = np.asarray(pred, dtype=np.float64)
    y = np.asarray(truth, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"ccc: inputs must be equal-length 1-D, got {x.shape} and {y.shape}")
    if x.size < 2:
        raise ValueError("ccc: need at least 2 samples")
    cov, vx, vy, gap = _ccc_moments(x, y)
    denom = vx + vy + gap * gap
    if denom < CCC_DEGENERATE_EPS:
        raise ValueError("degenerate CCC: both variances and mean gap are ~0")
    return 2.0 * cov / denom


def _ccc_column_graph(pred_col: Tensor, truth_col: np.ndarray) -> Tensor:
    my = float(truth_col.mean())
    yc = truth_col - my
    vy = float(np.mean(yc * yc))
    mx = pred_col.mean()
    xc = pred_col - mx
    cov = (xc * nm.tensor(yc)).mean()
    vx = nm.square(xc).mean()
    gap_sq = nm.square(mx - my)
    return (2.0 * cov) / (vx + vy + gap_sq)


def ccc_loss(pred: Tensor, truth: np.ndarray) -> Tensor:
    """1 - mean CCC over the three attribute columns, differentiable."""
    y = np.asarray(truth, dtype=np.float64)
    if pred.data.ndim != 2 or pred.shape[1] != 3 or y.shape != pred.data.shape:
        raise ValueError(
            f"ccc_loss: expected matching B x 3 inputs, got {pred.shape} and {y.shape}"
        )
    if pred.shape[0] < 2:
        raise ValueError("ccc_loss: need at least 2 samples")
    cols = []
    for j in range(3):
        unit = np.zeros(3)
        unit[j] = 1.0
        pcol = pred @ nm.tensor(unit)
        cov, vx, vy, gap = _ccc_moments(pred.data[:, j], y[:, j])
        if vx + vy + gap * gap < CCC_DEGENERATE_EPS:
            raise ValueError(f"degenerate CCC in attribute column {j}")
        cols.append(_ccc_column_graph(pcol, y[:, j]))
    mean_ccc = (cols[0] + cols[1] + cols[2]) / nm.tensor(3.0)
    return 1.0 - mean_ccc


def mse_loss(pred: Tensor, truth: np.ndarray) -> Tensor:
    y = np.asarray(truth, dtype=np.float64)
    if y.shape != pred.data.shape:
        raise ValueError(f"mse_loss: shape mismatch {pred.shape} vs {y.shape}")
    return nm.square(pred - nm.tensor(y)).mean()

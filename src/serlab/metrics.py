"""Classification and attribute-regression metrics, plus the analysis
procedures: binned CCC, prediction statistics, and the per-emotion
improvement comparison between two regression models.

Reports serialize to JSON and to a CSV row in the fixed column order
(F1-Macro, F1-Micro, Acc, Val, Aro, Dom, Avg) with 3-decimal rounding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .losses import ccc

EMOTION_CODES = ("A", "C", "D", "F", "H", "N", "S", "U")
EMOTION_NAMES = {
    "A": "anger",
    "C": "contempt",
    "D": "disgust",
    "F": "fear",
    "H": "happiness",
    "N": "neutral",
    "S": "sadness",
    "U": "surprise",
}
CODE_INDEX = {c: i for i, c in enumerate(EMOTION_CODES)}

ATTRIBUTE_NAMES = ("arousal", "valence", "dominance")
ATTRIBUTE_RANGE = (1.0, 7.0)

CSV_COLUMNS = ("method", "f1_macro", "f1_micro", "acc", "val", "aro", "dom", "avg")


def code_to_index(code: str) -> int:
    if code not in CODE_INDEX:
        raise ValueError(f"unknown emotion code {code!r}; expected one of {EMOTION_CODES}")
    return CODE_INDEX[code]


def validate_attributes(values: Sequence[float]) -> tuple[float, float, float]:
    vals = tuple(float(v) for v in values)
    if len(vals) != 3:
        raise ValueError(f"attribute vector must have 3 entries, got {len(vals)}")
    lo, hi = ATTRIBUTE_RANGE
    for name, v in zip(ATTRIBUTE_NAMES, vals):
        if not lo <= v <= hi:
            raise ValueError(f"attribute {name} out of range [{lo:g}, {hi:g}]: {v}")
    return vals


def clamp_attributes(values: Sequence[float]) -> tuple[tuple[float, float, float], bool]:
    lo, hi = ATTRIBUTE_RANGE
    clamped = tuple(min(max(float(v), lo), hi) for v in values)
    return clamped, any(c != float(v) for c, v in zip(clamped, values))


# ---------------------------------------------------------------------------
# classification

@dataclass(frozen=True)
class ClassificationReport:
    confusion: np.ndarray  # truth rows x prediction columns
    per_class_f1: dict[str, float]
    f1_macro: float
    f1_micro: float
    accuracy: float
    classes_scored: tuple[str, ...]

    def __post_init__(self) -> None:
        # single-label multi-class identity; construction-time sanity check
        if self.f1_micro != self.accuracy:
            raise ValueError(
                f"F1-micro must equal accuracy, got {self.f1_micro!r} and {self.accuracy!r}"
            )

    def to_dict(self) -> dict:
        return {
            "confusion": self.confusion.tolist(),
            "per_class_f1": dict(self.per_class_f1),
            "f1_macro": self.f1_macro,
            "f1_micro": self.f1_micro,
            "accuracy": self.accuracy,
            "classes_scored": list(self.classes_scored),
        }


def classification_metrics(pred: Sequence[str], truth: Sequence[str]) -> ClassificationReport:
    if len(pred) != len(truth):
        raise ValueError(f"length mismatch: {len(pred)} predictions vs {len(truth)} truths")
    if not truth:
        raise ValueError("empty label lists")
    n = len(truth)
    confusion = np.zeros((8, 8), dtype=np.int64)
    for p, t in zip(pred, truth):
        confusion[code_to_index(t), code_to_index(p)] += 1

    tp = np.diag(confusion).astype(np.float64)
    fp = confusion.sum(axis=0) - np.diag(confusion)
    fn = confusion.sum(axis=1) - np.diag(confusion)

    per_class: dict[str, float] = {}
    present: list[str] = []
    for i, code in enumerate(EMOTION_CODES):
        denom = 2.0 * tp[i] + fp[i] + fn[i]
        f1 = (2.0 * tp[i] / denom) if denom > 0 else 0.0
        per_class[code] = f1
        if confusion[i, :].sum() > 0 or confusion[:, i].sum() > 0:
            present.append(code)

    # macro over classes present in truth or predictions only
    f1_macro = float(np.mean([per_class[c] for c in present]))
    total_tp = float(tp.sum())
    f1_micro = 2.0 * total_tp / (2.0 * total_tp + float(fp.sum()) + float(fn.sum()))
    accuracy = total_tp / n
    return ClassificationReport(
        confusion=confusion,
        per_class_f1=per_class,
        f1_macro=f1_macro,
        f1_micro=f1_micro,
        accuracy=accuracy,
        classes_scored=tuple(present),
    )


# ---------------------------------------------------------------------------
# attributes

@dataclass(frozen=True)
class AttributeReport:
    ccc_arousal: float
    ccc_valence: float
    ccc_dominance: float

    @property
    def ccc_avg(self) -> float:
        return (self.ccc_arousal + self.ccc_valence + self.ccc_dominance) / 3.0

    def to_dict(self) -> dict:
        return {
            "ccc_arousal": self.ccc_arousal,
            "ccc_valence": self.ccc_valence,
            "ccc_dominance": self.ccc_dominance,
            "ccc_avg": self.ccc_avg,
        }


def attribute_metrics(pred: np.ndarray, truth: np.ndarray) -> AttributeReport:
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.shape != t.shape or p.ndim != 2 or p.shape[1] != 3:
        raise ValueError(f"expected matching N x 3 arrays, got {p.shape} and {t.shape}")
    if p.shape[0] < 2:
        raise ValueError("attribute metrics need at least 2 samples")
    vals = [ccc(p[:, j], t[:, j]) for j in range(3)]
    return AttributeReport(ccc_arousal=vals[0], ccc_valence=vals[1], ccc_dominance=vals[2])


@dataclass(frozen=True)
class MetricsReport:
    classification: ClassificationReport | None = None
    attributes: AttributeReport | None = None

    def to_dict(self) -> dict:
        out: dict = {}
        if self.classification is not None:
            out["classification"] = self.classification.to_dict()
        if self.attributes is not None:
            out["attributes"] = self.attributes.to_dict()
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def csv_row(self, method: str) -> str:
        cells = [method]
        if self.classification is not None:
            c = self.classification
            cells += [f"{c.f1_macro:.3f}", f"{c.f1_micro:.3f}", f"{c.accuracy:.3f}"]
        else:
            cells += ["", "", ""]
        if self.attributes is not None:
            a = self.attributes
            cells += [
                f"{a.ccc_valence:.3f}",
                f"{a.ccc_arousal:.3f}",
                f"{a.ccc_dominance:.3f}",
                f"{a.ccc_avg:.3f}",
            ]
        else:
            cells += ["", "", "", ""]
        return ",".join(cells)


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


# ---------------------------------------------------------------------------
# analysis procedures

@dataclass(frozen=True)
class BinResult:
    lo: float
    hi: float
    closed_right: bool
    count: int
    ccc: float | None  # None when the bin holds < 2 samples

    @property
    def label(self) -> str:
        right = "]" if self.closed_right else ")"
        return f"[{self.lo:g}, {self.hi:g}{right}"

    def to_dict(self) -> dict:
        return {
            "bin": self.label,
            "count": self.count,
            "ccc": self.ccc if self.ccc is not None else "insufficient",
        }


def binned_ccc(pred: Sequence[float], truth: Sequence[float], edges: Sequence[float]) -> list[BinResult]:
    """CCC within ground-truth value bins; the last bin is right-closed."""
    x = np.asarray(pred, dtype=np.float64)
    y = np.asarray(truth, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"expected equal-length 1-D inputs, got {x.shape} and {y.shape}")
    e = [float(v) for v in edges]
    if len(e) < 2 or not np.isfinite(e).all() or any(a >= b for a, b in zip(e, e[1:])):
        raise ValueError(f"edges must be finite and strictly increasing with >= 2 entries, got {e}")
    results = []
    last = len(e) - 2
    for i in range(len(e) - 1):
        lo, hi = e[i], e[i + 1]
        closed = i == last
        mask = (y >= lo) & ((y <= hi) if closed else (y < hi))
        count = int(mask.sum())
        value = ccc(x[mask], y[mask]) if count >= 2 else None
        results.append(BinResult(lo=lo, hi=hi, closed_right=closed, count=count, ccc=value))
    return results


def prediction_stats(values: Sequence[float]) -> tuple[float, float]:
    """Arithmetic mean and population standard deviation."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("prediction_stats: need a non-empty 1-D sequence")
    return float(v.mean()), float(v.std())


def format_mean_std(mean: float, std: float) -> str:
    return f"{mean:.2f}±{std:.2f}"


@dataclass(frozen=True)
class ComparisonReport:
    improved_ids: tuple[int, ...]
    improved_count: int
    total: int
    improved_shares: dict[str, float] = field(default_factory=dict)
    full_shares: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "improved_count": self.improved_count,
            "total": self.total,
            "improved_shares": dict(self.improved_shares),
            "full_shares": dict(self.full_shares),
        }


def compare_models(
    pred_a: Sequence[float],
    pred_b: Sequence[float],
    truth: Sequence[float],
    emotions: Sequence[str],
) -> ComparisonReport:
    """Per-emotion shares of the samples where model A beats model B.

    A sample is improved when A's squared error is strictly below B's;
    ties are excluded.  Emotion shares are reported both within the
    improved set and within the full set, for side-by-side comparison.
    """
    a = np.asarray(pred_a, dtype=np.float64)
    b = np.asarray(pred_b, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if not (a.shape == b.shape == t.shape) or a.ndim != 1 or len(emotions) != a.size:
        raise ValueError("compare_models: all inputs must be equal-length 1-D sequences")
    codes = [code_to_index(c) for c in emotions]  # validates
    se_a = (a - t) ** 2
    se_b = (b - t) ** 2
    improved = np.flatnonzero(se_a < se_b)

    def shares(indices: np.ndarray) -> dict[str, float]:
        counts = np.zeros(8, dtype=np.int64)
        for i in indices:
            counts[codes[i]] += 1
        denom = max(len(indices), 1)
        return {c: counts[k] / denom for k, c in enumerate(EMOTION_CODES)}

    return ComparisonReport(
        improved_ids=tuple(int(i) for i in improved),
        improved_count=int(improved.size),
        total=int(a.size),
        improved_shares=shares(improved) if improved.size else {c: 0.0 for c in EMOTION_CODES},
        full_shares=shares(np.arange(a.size)),
    )

"""Dense float64 tensors with reverse-mode automatic differentiation.

The op set is fixed and closed: ``matmul``; broadcast ``add``, ``sub``,
``mul`` and ``div``; the elementwise ``tanh``, ``exp``, ``log``, ``mish``,
``relu``, ``square``, ``sqrt`` and ``powf``; ``concat``; axis sum and mean;
a fully connected layer with its activation as one node (``dense``); three
ragged ops over packed sequences: attentive statistics pooling
(``segment_stat_pool``), the mean of each sequence (``segment_mean``) and
attention (``segment_attention``); and the two training-loss kernels:
per-column concordance (``ccc_columns``) and the per-row focal term
(``focal_terms``).  Everything else in the package composes exactly these
ops, which keeps every gradient path finite-difference checkable.  The
elementwise ops other than ``square`` stay for the tests' graph-composed
oracles, the references the fused layer, segment and loss kernels must
match.

A packed batch is B sequences stacked into one (sum T) x D matrix, sequence
b in the ``lengths[b]`` rows from ``offsets[b]`` on.  The segment ops sum
within each sequence with ``np.add.reduceat`` and take maxima with
``np.maximum.reduceat``, so no B x (sum T) indicator matrix is built.

Graphs are built eagerly (each op computes its value on construction) and
differentiated once by ``backward``.  Ops never mutate their inputs, so
threads may build and differentiate disjoint graphs concurrently.

The elementwise ops and ``dense`` compute their backward factor (the local
derivative) only when ``backward`` reaches them, from arrays captured at
forward time.  A pass that is never differentiated (dev evaluation,
``predict``, frozen encoders) computes no backward factor.  The activations
``tanh``, ``mish`` and ``relu`` have one forward and one derivative each
(``_activate``), shared by the elementwise op and ``dense``.

The two kernels that dominate long utterances keep their full-array passes
few.  ``mish`` calls one exponential, ``exp(min(x, 20))``, and forms
tanh(ln(1 + eˣ)) as n / (n + 2) with n = e(e + 2); the clamp is exact,
because past it the true tanh rounds to 1.0.  ``segment_attention`` applies
the softmax normaliser after summing over query rows, so its forward never
divides or averages a whole weight matrix.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

Array = np.ndarray

CCC_DEGENERATE_EPS = 1e-15  # a smaller concordance denominator is degenerate
VAR_EPS = 1e-9  # added to a pooled variance before its square root

__all__ = [
    "Tensor",
    "ParamStore",
    "tensor",
    "backward",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "tanh",
    "exp",
    "log",
    "mish",
    "relu",
    "square",
    "sqrt",
    "powf",
    "concat",
    "dense",
    "segment_stat_pool",
    "segment_mean",
    "segment_attention",
    "ccc_columns",
    "focal_terms",
]


class Tensor:
    """A graph node holding a C-contiguous float64 array."""

    __slots__ = ("data", "requires_grad", "grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents: tuple = (), op: str = "leaf"):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.requires_grad = requires_grad
        self.grad: Array | None = None
        self.op = op
        self._parents = parents
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item: tensor has {self.data.size} elements")
        return float(self.data.reshape(()))

    def sum(self, axis: int | None = None) -> "Tensor":
        return _reduce(self, axis, mean=False)

    def mean(self, axis: int | None = None) -> "Tensor":
        return _reduce(self, axis, mean=True)

    def __add__(self, other) -> "Tensor":
        return add(self, other)

    def __radd__(self, other) -> "Tensor":
        return add(other, self)

    def __sub__(self, other) -> "Tensor":
        return sub(self, other)

    def __rsub__(self, other) -> "Tensor":
        return sub(other, self)

    def __mul__(self, other) -> "Tensor":
        return mul(self, other)

    def __rmul__(self, other) -> "Tensor":
        return mul(other, self)

    def __truediv__(self, other) -> "Tensor":
        return div(self, other)

    def __matmul__(self, other) -> "Tensor":
        return matmul(self, other)

    def __neg__(self) -> "Tensor":
        return mul(self, -1.0)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r})"


def tensor(values) -> Tensor:
    """Build a constant leaf, rejecting non-finite entries."""
    t = Tensor(values)
    _check_finite(t.data, "tensor")
    return t


def _check_finite(arr: Array, op: str) -> None:
    finite = np.isfinite(arr)
    if not finite.all():
        idx = int(np.argmin(finite.ravel()))
        raise ValueError(f"{op}: non-finite input at flat index {idx}")


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: Array, parents: tuple, op: str, backward_fn) -> Tensor:
    requires = any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires, parents=parents, op=op)
    if requires:
        out._backward = backward_fn
    return out


def _accum(t: Tensor, g: Array) -> None:
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# binary ops

def _broadcast_data(a: Tensor, b: Tensor, fn, op: str) -> Array:
    try:
        return fn(a.data, b.data)
    except ValueError as err:
        raise ValueError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from err


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = _broadcast_data(a, b, np.add, "add")

    def backward_fn(g: Array) -> None:
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), "add", backward_fn)


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = _broadcast_data(a, b, np.subtract, "sub")

    def backward_fn(g: Array) -> None:
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _node(data, (a, b), "sub", backward_fn)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = _broadcast_data(a, b, np.multiply, "mul")

    def backward_fn(g: Array) -> None:
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), "mul", backward_fn)


def div(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if np.any(b.data == 0.0):
        raise ValueError("div: division by zero")
    data = _broadcast_data(a, b, np.divide, "div")

    def backward_fn(g: Array) -> None:
        _accum(a, _unbroadcast(g / b.data, a.data.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _node(data, (a, b), "div", backward_fn)


def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    an, bn = a.data.ndim, b.data.ndim
    if an == 0 or bn == 0 or an > 2 or bn > 2:
        raise ValueError(f"matmul: operands must be 1-D or 2-D, got ranks {an} and {bn}")
    try:
        data = a.data @ b.data
    except ValueError as err:
        raise ValueError(f"matmul: incompatible shapes {a.shape} @ {b.shape}") from err

    def backward_fn(g: Array) -> None:
        if an == 1 and bn == 1:
            _accum(a, g * b.data)
            _accum(b, g * a.data)
        elif an == 1:
            _accum(a, b.data @ g)
            _accum(b, np.outer(a.data, g))
        elif bn == 1:
            _accum(a, np.outer(g, b.data))
            _accum(b, a.data.T @ g)
        else:
            _accum(a, g @ b.data.T)
            _accum(b, a.data.T @ g)

    return _node(data, (a, b), "matmul", backward_fn)


# ---------------------------------------------------------------------------
# elementwise ops

def _unary(x, data: Array, local, op: str) -> Tensor:
    """Node whose input gradient is ``g * local()``.

    ``local`` is called only when ``backward`` reaches the node, so a forward
    pass that is never differentiated never computes it.  It must read the
    arrays captured at forward time, not ``x.data``, which
    ``ParamStore.set_value`` may rebind before ``backward`` runs.
    """
    def backward_fn(g: Array) -> None:
        _accum(x, g * local())

    return _node(data, (x,), op, backward_fn)


def tanh(x) -> Tensor:
    x = _coerce(x)
    return _unary(x, *_activate("tanh", x.data), "tanh")


def exp(x) -> Tensor:
    x = _coerce(x)
    with np.errstate(over="ignore"):
        y = np.exp(x.data)
    _check_finite(y, "exp")
    return _unary(x, y, lambda: y, "exp")


def log(x) -> Tensor:
    x = _coerce(x)
    if np.any(x.data <= 0.0):
        idx = int(np.argmax((x.data <= 0.0).ravel()))
        raise ValueError(f"log: domain error at flat index {idx}")
    xd = x.data
    return _unary(x, np.log(xd), lambda: 1.0 / xd, "log")


def _mish_parts(e: Array) -> tuple[Array, Array]:
    """(n + 2, n / (n + 2)) for n = e(e + 2), from e = exp(min(x, 20))."""
    n = e + 2.0
    n *= e
    w = n + 2.0
    return w, np.divide(n, w, out=n)


def _mish(x: Array) -> tuple[Array, Callable[[], Array]]:
    """Mish of ``x`` from one exponential, and its lazy derivative.

    With e = exp(x) and n = e(e + 2), tanh(ln(1 + e)) = n / (n + 2).  The
    exponent is clamped at 20: from there on the exact tanh rounds to 1.0,
    so the clamp changes no value and n cannot overflow.  The derivative
    t + x(1 - t²)σ(x) is taken as t + 4x·e(e + 1)/(n + 2)², the same
    quantity without the cancellation in 1 - t².  Past the clamp its second
    term, under 2 ulps of 1 there, is dropped, so the derivative is exactly 1.
    Values and derivatives are within 4 ulps of exact (of the larger term,
    for the derivative), plus the smallest normal float where they underflow.
    Only e is kept for the derivative, which recomputes n from it.
    """
    _check_finite(x, "mish")
    e = np.minimum(x, 20.0)
    np.exp(e, out=e)

    def local() -> Array:
        w, t = _mish_parts(e)
        d = e + 1.0
        d *= e
        d *= np.where(x < 20.0, x, 0.0)
        d /= w * w
        d *= 4.0
        d += t
        return d

    return x * _mish_parts(e)[1], local


def _activate(activation: str, z: Array) -> tuple[Array, Callable[[], Array] | None]:
    """``activation(z)`` and a thunk for its derivative at ``z``, None for
    ``"none"``.  The thunk reads only arrays captured here, so it may run
    after the parameters that gave ``z`` were rebound."""
    if activation == "mish":
        return _mish(z)
    if activation == "relu":
        return np.maximum(z, 0.0), lambda: (z > 0.0).astype(np.float64)
    if activation == "tanh":
        y = np.tanh(z)
        return y, lambda: 1.0 - y * y
    if activation == "none":
        return z, None
    raise ValueError(f"unknown activation {activation!r}")


def mish(x) -> Tensor:
    """Elementwise x * tanh(ln(1 + eˣ)); see ``_mish``."""
    x = _coerce(x)
    return _unary(x, *_activate("mish", x.data), "mish")


def relu(x) -> Tensor:
    x = _coerce(x)
    return _unary(x, *_activate("relu", x.data), "relu")


def square(x) -> Tensor:
    x = _coerce(x)
    xd = x.data
    return _unary(x, xd * xd, lambda: 2.0 * xd, "square")


def sqrt(x) -> Tensor:
    x = _coerce(x)
    if np.any(x.data < 0.0):
        idx = int(np.argmax((x.data < 0.0).ravel()))
        raise ValueError(f"sqrt: domain error at flat index {idx}")
    y = np.sqrt(x.data)

    def local() -> Array:
        with np.errstate(divide="ignore"):
            return 0.5 / y

    return _unary(x, y, local, "sqrt")


def powf(x, p: float) -> Tensor:
    """Elementwise x**p for x >= 0 and fixed float exponent."""
    x = _coerce(x)
    p = float(p)
    if np.any(x.data < 0.0):
        idx = int(np.argmax((x.data < 0.0).ravel()))
        raise ValueError(f"powf: negative base at flat index {idx}")
    y = np.power(x.data, p)
    xd = x.data

    def local() -> Array:
        if p == 0.0:
            return np.zeros_like(xd)
        with np.errstate(divide="ignore"):
            return p * np.power(xd, p - 1.0)

    return _unary(x, y, local, "powf")


# ---------------------------------------------------------------------------
# structural ops

def concat(parts: Sequence, axis: int = 0) -> Tensor:
    ts = [_coerce(p) for p in parts]
    if not ts:
        raise ValueError("concat: no inputs")
    try:
        data = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as err:
        raise ValueError(f"concat: incompatible shapes {[t.shape for t in ts]}") from err
    sizes = [t.data.shape[axis] for t in ts]

    def backward_fn(g: Array) -> None:
        offset = 0
        for t, n in zip(ts, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + n)
            _accum(t, g[tuple(sl)])
            offset += n

    return _node(data, tuple(ts), "concat", backward_fn)


def dense(x, W, b, activation: str = "none") -> Tensor:
    """A fully connected layer, ``activation(x @ W + b)``, as one node:
    x is (D,) or B x D, W is D x F and b is (F,); ``activation`` is mish,
    relu, tanh or none.

    Values and gradients are those of the matmul, add and activation nodes
    it replaces, bit for bit.  The backward skips the product for an input
    that needs no gradient, as packed frames do.
    """
    x, W, b = _coerce(x), _coerce(W), _coerce(b)
    xd, Wd = x.data, W.data
    if xd.ndim not in (1, 2) or Wd.ndim != 2 or xd.shape[-1] != Wd.shape[0] \
            or b.data.shape != Wd.shape[1:]:
        raise ValueError(f"dense: incompatible shapes {x.shape} @ {W.shape} + {b.shape}")
    z = xd @ Wd
    z += b.data
    y, local = _activate(activation, z)

    def backward_fn(g: Array) -> None:
        gz = g if local is None else g * local()
        if xd.ndim == 1:
            if x.requires_grad:
                _accum(x, Wd @ gz)
            _accum(W, np.outer(xd, gz))
            _accum(b, gz)
        else:
            if x.requires_grad:
                _accum(x, gz @ Wd.T)
            _accum(W, xd.T @ gz)
            _accum(b, gz.sum(axis=0))

    return _node(y, (x, W, b), "dense", backward_fn)


def _check_packed(op: str, H: Tensor, offsets, lengths) -> tuple[Array, Array]:
    """``offsets`` and ``lengths`` as int arrays, after checking that H is a
    packed batch of that layout."""
    offsets, lengths = np.asarray(offsets, dtype=np.int64), np.asarray(lengths, dtype=np.int64)
    if H.data.ndim != 2:
        raise ValueError(f"{op}: expected T x D input, got {H.shape}")
    total = int(lengths.sum())
    if total != H.shape[0] or offsets.shape != lengths.shape:
        raise ValueError(f"{op}: {H.shape[0]} rows for a packed batch of {total}")
    return offsets, lengths


def segment_stat_pool(H, scores, offsets, lengths) -> Tensor:
    """Attentive statistics pooling of a packed batch: B x 2D, row b the
    mean of sequence b's rows of ``H`` weighted by the softmax of its
    ``scores``, then their weighted std.

    The softmax is taken within each sequence, shifted by the sequence's
    max.  The variance is clamped at zero and padded with ``VAR_EPS`` before
    the square root, so constant sequences stay differentiable; where the
    clamp holds, the std passes no gradient.  The backward is closed-form:
    with ``g_var = g_σ / 2σ`` and ``g_μ' = g_μ − 2μ·g_var``, frame t of
    sequence b gets ``α_t (g_μ' + 2 h_t g_var)`` and its score
    ``α_t (d_t − Σ_u α_u d_u)``, ``d_t = h_t·g_μ' + h_t²·g_var``.
    """
    H, s = _coerce(H), _coerce(scores)
    offsets, lengths = _check_packed("segment_stat_pool", H, offsets, lengths)
    Hd, sd = H.data, s.data
    if sd.shape != Hd.shape[:1]:
        raise ValueError(f"segment_stat_pool: {s.shape} scores for {Hd.shape[0]} rows")
    alpha = sd - np.repeat(np.maximum.reduceat(sd, offsets), lengths)
    np.exp(alpha, out=alpha)
    alpha /= np.repeat(np.add.reduceat(alpha, offsets), lengths)
    weighted = alpha[:, None] * Hd
    mu = np.add.reduceat(weighted, offsets, axis=0)
    weighted *= Hd
    var = np.add.reduceat(weighted, offsets, axis=0)
    var -= mu * mu
    sigma = np.sqrt(np.maximum(var, 0.0) + VAR_EPS)

    def backward_fn(g: Array) -> None:
        cols = Hd.shape[1]
        g_var = np.where(var > 0.0, g[:, cols:] * (0.5 / sigma), 0.0)
        g_mu = np.repeat(g[:, :cols] - 2.0 * mu * g_var, lengths, axis=0)
        g_var = np.repeat(g_var, lengths, axis=0)
        if H.requires_grad:
            _accum(H, alpha[:, None] * (g_mu + 2.0 * Hd * g_var))
        if s.requires_grad:
            ad = alpha * (Hd * (g_mu + Hd * g_var)).sum(axis=1)
            _accum(s, ad - alpha * np.repeat(np.add.reduceat(ad, offsets), lengths))

    return _node(np.concatenate([mu, sigma], axis=1), (H, s), "segment_stat_pool", backward_fn)


def segment_mean(H, offsets, lengths) -> Tensor:
    """The mean of each sequence's rows of a packed ``H``: B x D."""
    H = _coerce(H)
    offsets, lengths = _check_packed("segment_mean", H, offsets, lengths)
    n = lengths[:, None].astype(np.float64)

    def backward_fn(g: Array) -> None:
        _accum(H, np.repeat(g / n, lengths, axis=0))

    return _node(np.add.reduceat(H.data, offsets, axis=0) / n, (H,), "segment_mean", backward_fn)


def segment_attention(q, k, v, q_offsets, q_lengths, kv_offsets, kv_lengths) -> Tensor:
    """Attention within each of B packed sequence pairs: B x D, row b the
    mean over query rows of ``softmax(q_b k_bᵀ) v_b``.

    q_b holds the ``q_lengths[b]`` rows of ``q`` from ``q_offsets[b]`` on;
    k_b and v_b hold the ``kv_lengths[b]`` rows of ``k`` and ``v`` from
    ``kv_offsets[b]`` on.  No padding: each Tq x Tk matrix of exponentials
    is built from its own rows, with a row-max shift.  The softmax
    normaliser is applied after the sum over query rows, as in
    FlashAttention: with ``r = 1 / rowsum(e)``, row b is
    ``((r e) / Tq) v_b``, so the forward never divides or averages the whole
    matrix.  Only when an input requires grad does it normalise the matrix
    in place and keep it, with its column means, for ``backward``.
    """
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    if len(q_lengths) != len(kv_lengths) or any(t.data.ndim != 2 for t in (q, k, v)) \
            or q.shape[1] != k.shape[1] or v.shape[0] != k.shape[0] \
            or q.shape[0] != np.sum(q_lengths) or k.shape[0] != np.sum(kv_lengths):
        raise ValueError(
            f"segment_attention: {len(q_lengths)} query and {len(kv_lengths)} key sequences "
            f"do not fit q {q.shape}, k {k.shape}, v {v.shape}"
        )
    qd, kd, vd = q.data, k.data, v.data
    spans = [
        (slice(qo, qo + qn), slice(ko, ko + kn))
        for qo, qn, ko, kn in zip(q_offsets, q_lengths, kv_offsets, kv_lengths)
    ]
    keep = q.requires_grad or k.requires_grad or v.requires_grad
    saved: list[tuple[Array, Array]] = []  # (weights, their column means) per pair
    out = np.empty((len(spans), vd.shape[1]))
    for b, (qs, ks) in enumerate(spans):
        e = qd[qs] @ kd[ks].T
        e -= e.max(axis=1, keepdims=True)
        np.exp(e, out=e)
        r = 1.0 / e.sum(axis=1)
        col_mean = (r @ e) / e.shape[0]
        out[b] = col_mean @ vd[ks]
        if keep:
            e *= r[:, None]
            saved.append((e, col_mean))

    def backward_fn(g: Array) -> None:
        dq, dk, dv = np.zeros_like(qd), np.zeros_like(kd), np.zeros_like(vd)
        for (qs, ks), (w, col_mean), gb in zip(spans, saved, g):
            dv[ks] += np.outer(col_mean, gb)
            r = vd[ks] @ gb / w.shape[0]  # d out_b / d w_ij = v_j . g_b / Tq
            ds = w * (r - (w @ r)[:, None])
            dq[qs] += ds @ kd[ks]
            dk[ks] += ds.T @ qd[qs]
        _accum(q, dq)
        _accum(k, dk)
        _accum(v, dv)

    return _node(out, (q, k, v), "segment_attention", backward_fn)


def ccc_columns(x, y) -> Tensor:
    """Lin's concordance correlation of each column of ``x`` (B x C) with the
    same column of the constant ``y``: a (C,) tensor of
    ``c = 2·cov / D``, ``D = var_x + var_y + (x̄ − ȳ)²``, population moments.

    Each column's moments are summed in the order a 1-D column sum takes,
    so ``c`` is bit-identical to the same formula composed from graph ops.
    The backward is closed-form:
    ``dc_j/dx_ij = (2/(B·D_j))·((y_ij − ȳ_j) − c_j·((x_ij − x̄_j) + (x̄_j − ȳ_j)))``.
    """
    x = _coerce(x)
    yd = np.asarray(y, dtype=np.float64)
    if x.data.ndim != 2 or yd.shape != x.shape or x.shape[0] < 2:
        raise ValueError(f"ccc_columns: expected matching B x C inputs, B >= 2, "
                         f"got {x.shape} and {yd.shape}")
    n, cols = x.shape
    xy = np.concatenate([x.data, yd], axis=1).T.copy()  # x then y columns as contiguous rows
    mean = xy.sum(axis=1) / n
    centered = xy - mean[:, None]
    xc, yc = centered[:cols], centered[cols:]
    var = (centered * centered).sum(axis=1) / n
    gap = mean[:cols] - mean[cols:]
    denom = var[:cols] + var[cols:] + gap * gap
    if denom.min() < CCC_DEGENERATE_EPS:
        raise ValueError(f"ccc_columns: degenerate CCC in column {int(np.argmin(denom))}")
    c = 2.0 * ((xc * yc).sum(axis=1) / n) / denom

    def backward_fn(g: Array) -> None:
        d = (yc - c[:, None] * (xc + gap[:, None])) * (2.0 * g / (n * denom))[:, None]
        _accum(x, d.T)

    return _node(c, (x,), "ccc_columns", backward_fn)


def focal_terms(logits, targets, gamma: float) -> Tensor:
    """Per-row focal term ``(1 − p_t)^γ · (−log p_t)`` of B x K ``logits``,
    p_t the softmax probability of row b's class ``targets[b]``; γ = 0 gives
    the cross-entropy.

    ``log p_t = z_t − m − log Σ exp(z − m)``, with m the row max, so the term
    stays finite however far apart the logits are.  The backward is
    closed-form: ``∂/∂log p_t = −(1 − p_t)^γ + γ·log p_t·p_t·(1 − p_t)^(γ−1)``,
    whose second part takes its limit 0 where p_t rounds to 1, times
    ``onehot − softmax`` for the logits.
    """
    x = _coerce(logits)
    xd = x.data
    t = np.asarray(targets)
    if xd.ndim != 2 or t.shape != (xd.shape[0],):
        raise ValueError(f"focal_terms: {t.shape} targets do not fit logits {x.shape}")
    _check_finite(xd, "focal_terms")
    gamma = float(gamma)
    rows = np.arange(t.size)
    shifted = xd - xd.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=1)  # >= 1: the max's own term is 1
    log_pt = shifted[rows, t] - np.log(s)
    pt = np.exp(log_pt)
    q = 1.0 - pt
    modulator = np.power(q, gamma)
    nll = -log_pt
    data = nll * modulator

    def backward_fn(g: Array) -> None:
        slope = np.zeros_like(q)  # (1 - p_t)^(γ-1), 0 where p_t rounds to 1
        np.power(q, gamma - 1.0, out=slope, where=q > 0.0)
        g_log_pt = -(g * modulator) - (g * nll) * (gamma * slope) * pt
        d = ((-g_log_pt) * (1.0 / s))[:, None] * e  # the softmax part
        d[rows, t] += g_log_pt  # the onehot part
        _accum(x, d)

    return _node(data, (x,), "focal_terms", backward_fn)


def _reduce(x: Tensor, axis: int | None, mean: bool) -> Tensor:
    op = "mean" if mean else "sum"
    if axis is not None and not -x.data.ndim <= axis < x.data.ndim:
        raise ValueError(f"{op}: axis {axis} invalid for shape {x.shape}")
    if axis is None:
        n = x.data.size
        data = x.data.sum()
    else:
        n = x.data.shape[axis]
        data = x.data.sum(axis=axis)
    if mean:
        data = data / n

    def backward_fn(g: Array) -> None:
        if axis is None:
            full = np.broadcast_to(g, x.data.shape)
        else:
            full = np.broadcast_to(np.expand_dims(g, axis), x.data.shape)
        _accum(x, full / n if mean else full.copy())

    return _node(data, (x,), op, backward_fn)


# ---------------------------------------------------------------------------
# parameters and differentiation

class ParamStore:
    """Ordered name -> parameter map; gradients live on the parameter tensors."""

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}
        self._trainable: dict[str, bool] = {}

    def add(self, name: str, values, trainable: bool = True) -> Tensor:
        """``values`` as parameter ``name``, unchecked: they come from
        ``init_params`` or a ``Checkpoint``, which checked them."""
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(values, requires_grad=trainable, op="param")
        self._params[name] = t
        self._trainable[name] = trainable
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def __iter__(self) -> Iterator[str]:
        return iter(self._params)

    def names(self) -> tuple[str, ...]:
        return tuple(self._params)

    def trainable_names(self) -> tuple[str, ...]:
        return tuple(n for n, t in self._trainable.items() if t)

    def value(self, name: str) -> Array:
        return self._params[name].data

    def set_value(self, name: str, values) -> None:
        t = self._params[name]
        arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        if arr.shape != t.data.shape:
            raise ValueError(
                f"set_value: shape {arr.shape} does not match parameter "
                f"{name!r} of shape {t.data.shape}"
            )
        t.data = arr

    def grad(self, name: str) -> Array:
        """Gradient from the last ``backward``; zeros where the loss did not reach."""
        t = self._params[name]
        return t.grad if t.grad is not None else np.zeros_like(t.data)

    @property
    def grads(self) -> dict[str, Array]:
        return {name: self.grad(name) for name in self._params}

    def clear_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def view(self, prefix: str) -> dict[str, Tensor]:
        """Sub-map of parameters under ``prefix``, keys shortened."""
        out = {n[len(prefix):]: t for n, t in self._params.items() if n.startswith(prefix)}
        if not out:
            raise KeyError(f"no parameters under prefix {prefix!r}")
        return out

    def state_dict(self) -> dict[str, Array]:
        return {n: t.data.copy() for n, t in self._params.items()}


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = {id(root)}
    onpath: set[int] = {id(root)}
    stack: list[tuple[Tensor, Iterator[Tensor]]] = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        pushed = False
        for p in parents:
            pid = id(p)
            if pid in onpath:
                raise ValueError(f"cycle detected in graph at op {p.op!r}")
            if pid not in visited:
                visited.add(pid)
                onpath.add(pid)
                stack.append((p, iter(p._parents)))
                pushed = True
                break
        if not pushed:
            order.append(node)
            onpath.discard(id(node))
            stack.pop()
    return order


def backward(loss: Tensor, params: ParamStore | None = None) -> ParamStore | None:
    """Reverse-mode pass from a scalar loss; fills ``params`` gradients.

    Parameters not reachable from ``loss`` receive zero gradients.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if params is not None:
        params.clear_grads()
    order = _toposort(loss)
    for node in order:
        node.grad = None
    if loss.requires_grad:
        loss.grad = np.ones_like(loss.data)
        for node in reversed(order):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)
    return params

"""Shared test utilities: the finite-difference gradient oracle, the
layer-by-layer initialisation oracles for ``model.init_params``, the
per-utterance encoder and cross-attention oracles for packed batches, the
graph-composed oracles for the fused layer, segment, loss and Adam kernels,
and a throwaway chat-completion server for exercising the LLM client."""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

import numpy as np

from serlab import losses, model
from serlab import numerics as nm
from serlab.trainer import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


def finite_difference_grads(
    f: Callable[[dict[str, np.ndarray]], float],
    arrays: dict[str, np.ndarray],
    h: float = 1e-6,
) -> dict[str, np.ndarray]:
    """Central-difference gradients of scalar f w.r.t. every array entry."""
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        flat, gf = arr.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(arrays)
            flat[i] = orig - h
            fm = f(arrays)
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * h)
        grads[name] = g
    return grads


def check_gradients(
    build_loss: Callable[[nm.ParamStore], nm.Tensor],
    arrays: dict[str, np.ndarray],
    rtol: float = 1e-6,
    h: float = 1e-6,
) -> None:
    """Assert analytic gradients match the finite-difference oracle.

    The error is max-norm relative to max(1, |numeric|) per tensor, so tiny
    gradients are compared absolutely and large ones relatively.
    """
    store = nm.ParamStore()
    for name, arr in arrays.items():
        store.add(name, arr)
    loss = build_loss(store)
    nm.backward(loss, store)
    analytic = store.grads

    def f(arrs: dict[str, np.ndarray]) -> float:
        s = nm.ParamStore()
        for name, arr in arrs.items():
            s.add(name, arr)
        return build_loss(s).item()

    numeric = finite_difference_grads(f, arrays, h=h)
    for name in arrays:
        a, n = analytic[name], numeric[name]
        scale = max(1.0, float(np.max(np.abs(n))))
        err = float(np.max(np.abs(a - n))) / scale
        assert err < rtol, f"gradient mismatch for {name!r}: rel err {err:.3e}"


def _oracle_affine(rng: np.random.Generator, fan_in: int, fan_out: int):
    bound = 1.0 / math.sqrt(fan_in)
    w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    return w, np.zeros(fan_out)


def oracle_init_encoder_params(cfg, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Encoder initialisation written out layer by layer: the names, order
    and draws ``model.init_params(model.encoder_shapes(cfg), rng)`` must
    reproduce."""
    params: dict[str, np.ndarray] = {}
    params["frame.W"], params["frame.b"] = _oracle_affine(rng, cfg.frame_dim, cfg.hidden_dim)
    pooled = cfg.hidden_dim
    if cfg.modality == "speech":
        params["att.W"], params["att.b"] = _oracle_affine(rng, cfg.hidden_dim, cfg.hidden_dim)
        bound = 1.0 / math.sqrt(cfg.hidden_dim)
        params["att.v"] = rng.uniform(-bound, bound, size=cfg.hidden_dim)
        pooled = 2 * cfg.hidden_dim
    params["proj.W"], params["proj.b"] = _oracle_affine(rng, pooled, cfg.out_dim)
    return params


def oracle_init_head_params(
    in_dim: int, out_dim: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    params: dict[str, np.ndarray] = {}
    params["fc1.W"], params["fc1.b"] = _oracle_affine(rng, in_dim, in_dim)
    params["fc2.W"], params["fc2.b"] = _oracle_affine(rng, in_dim, out_dim)
    return params


def oracle_init_cross_attention_params(
    speech_dim: int, text_dim: int, attn_dim: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    params: dict[str, np.ndarray] = {}
    params["q.W"], _ = _oracle_affine(rng, text_dim, attn_dim)
    params["k.W"], _ = _oracle_affine(rng, speech_dim, attn_dim)
    params["v.W"], _ = _oracle_affine(rng, speech_dim, attn_dim)
    return params


def oracle_attentive_stat_pool(H, W, b, v) -> nm.Tensor:
    """Attentive statistics pooling of one sequence, its softmax the
    exponentials of the max-shifted scores over their sum: the per-utterance
    form the packed pooling must reproduce."""
    scores = nm.tanh(H @ W + b) @ v
    e = nm.exp(scores - nm.Tensor(scores.data.max()))
    alpha = e / e.sum()
    mu = alpha @ H
    m2 = alpha @ nm.square(H)
    sigma = nm.sqrt(nm.relu(m2 - nm.square(mu)) + model.VAR_EPS)
    return nm.concat([mu, sigma])


def oracle_dense(x, W, b, activation) -> nm.Tensor:
    """A dense layer as matmul, add and activation nodes: the graph
    ``nm.dense`` replaces, bit for bit."""
    z = x @ W + b
    return z if activation == "none" else getattr(nm, activation)(z)


def _segment_matrix(lengths) -> np.ndarray:
    """The constant 0/1 (B x sum T) segment indicator: ``S @ X`` sums each
    sequence's rows of X."""
    matrix = np.zeros((len(lengths), int(np.sum(lengths))))
    matrix[np.repeat(np.arange(len(lengths)), lengths), np.arange(matrix.shape[1])] = 1.0
    return matrix


def oracle_segment_stat_pool(H, scores, lengths) -> nm.Tensor:
    """Attentive statistics pooling of a packed batch as products with the
    segment indicator S, the graph ``nm.segment_stat_pool`` replaces: each
    frame's softmax denominator spread back by ``(S @ e) @ S``, the moments
    taken by ``(S * α) @ H`` and ``(S * α) @ square(H)``."""
    lengths = np.asarray(lengths)
    S = nm.Tensor(_segment_matrix(lengths))
    shift = np.repeat(np.maximum.reduceat(scores.data, np.cumsum(lengths) - lengths), lengths)
    e = nm.exp(scores - nm.Tensor(shift))
    A = S * (e / ((S @ e) @ S))
    mu = A @ H
    m2 = A @ nm.square(H)
    sigma = nm.sqrt(nm.relu(m2 - nm.square(mu)) + model.VAR_EPS)
    return nm.concat([mu, sigma], axis=1)


def oracle_segment_mean(H, lengths) -> nm.Tensor:
    """Each sequence's mean as ``(S / len) @ H``, the graph
    ``nm.segment_mean`` replaces."""
    lengths = np.asarray(lengths)
    return nm.Tensor(_segment_matrix(lengths) / lengths[:, None]) @ H


def oracle_encoder_forward(cfg, p, frames) -> nm.Tensor:
    """One utterance's embedding, one graph per utterance."""
    h = model.frame_hidden(cfg, p, frames)
    if cfg.attentive:
        pooled = oracle_attentive_stat_pool(h, p["att.W"], p["att.b"], p["att.v"])
    else:
        pooled = h.mean(axis=0)
    return pooled @ p["proj.W"] + p["proj.b"]


def oracle_encode_batch(cfg, p, seqs) -> nm.Tensor:
    """The B x out embeddings of a batch, utterance by utterance, flattened
    row after row into one vector."""
    return nm.concat([oracle_encoder_forward(cfg, p, s) for s in seqs])


def oracle_cross_attention(Hs, Ht, p) -> nm.Tensor:
    """Cross-attention of one utterance with constant speech frames ``Hs``
    and text frames ``Ht``, one query row at a time: the per-utterance form
    the packed head must reproduce."""
    q_W = p["q.W"] / math.sqrt(p["q.W"].shape[1])
    k = nm.tensor(Hs) @ p["k.W"]
    v = nm.tensor(Hs) @ p["v.W"]
    rows = []
    for h in Ht:
        scores = k @ (nm.tensor(h) @ q_W)
        e = nm.exp(scores - nm.Tensor(scores.data.max()))
        rows.append((e / e.sum()) @ v)
    return sum(rows[1:], rows[0]) / float(len(rows))


def _oracle_target_log_probs(logits: nm.Tensor, targets: np.ndarray) -> nm.Tensor:
    onehot = np.zeros((targets.size, losses.NUM_CLASSES))
    onehot[np.arange(targets.size), targets] = 1.0
    shifted = logits - nm.Tensor(logits.data.max(axis=1, keepdims=True))
    log_norm = nm.log(nm.exp(shifted).sum(axis=1))
    return (shifted * nm.tensor(onehot)).sum(axis=1) - log_norm


def oracle_weighted_cross_entropy(logits, targets, weights) -> nm.Tensor:
    """Weighted cross-entropy composed from elementwise graph ops."""
    t = np.asarray(targets, dtype=np.int64)
    nll = -_oracle_target_log_probs(logits, t)
    w = weights.weights[t]
    return (nll * nm.tensor(w)).sum() / nm.tensor(float(w.sum()))


def oracle_focal_loss(logits, targets, cfg) -> nm.Tensor:
    """Focal loss composed from elementwise graph ops, ``powf`` for the
    modulator: the form ``losses.focal_loss`` must reproduce bit for bit."""
    t = np.asarray(targets, dtype=np.int64)
    log_pt = _oracle_target_log_probs(logits, t)
    modulator = nm.powf(1.0 - nm.exp(log_pt), cfg.gamma)
    per_sample = -log_pt * modulator * nm.tensor(cfg.alpha[t])
    return per_sample.sum() / nm.tensor(float(t.size))


def oracle_ccc_loss(pred, truth) -> nm.Tensor:
    """1 - mean CCC with each column's moments composed from graph ops."""
    y = np.asarray(truth, dtype=np.float64)
    cols = []
    for j in range(3):
        unit = np.zeros(3)
        unit[j] = 1.0
        pcol = pred @ nm.tensor(unit)
        my = float(y[:, j].mean())
        yc = y[:, j] - my
        vy = float(np.mean(yc * yc))
        mx = pcol.mean()
        xc = pcol - mx
        cov = (xc * nm.tensor(yc)).mean()
        vx = nm.square(xc).mean()
        cols.append((2.0 * cov) / (vx + vy + nm.square(mx - my)))
    return 1.0 - (cols[0] + cols[1] + cols[2]) / nm.tensor(3.0)


class OracleAdam:
    """Adam with one moment array per tensor, updated tensor by tensor."""

    def __init__(self, params: nm.ParamStore, names) -> None:
        self.step = 0
        self.m = {n: np.zeros_like(params.value(n)) for n in names}
        self.v = {n: np.zeros_like(params.value(n)) for n in names}

    def update(self, params: nm.ParamStore, grads, lr: float) -> None:
        self.step += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.step
        bc2 = 1.0 - ADAM_BETA2 ** self.step
        for name in self.m:
            g = grads[name]
            self.m[name] = ADAM_BETA1 * self.m[name] + (1.0 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1.0 - ADAM_BETA2) * (g * g)
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            params.set_value(name, params.value(name) - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))


class MockChatServer:
    """Local OpenAI-shaped chat-completion endpoint with a request counter.

    ``responder`` maps a prompt to the reply text, or to an int, which is
    sent back as that HTTP status with an error body.
    """

    def __init__(self, responder: Callable[[str], str | int]) -> None:
        self.requests: list[str] = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                prompt = body["messages"][0]["content"]
                outer.requests.append(prompt)
                answer = responder(prompt)
                if isinstance(answer, int):
                    status, doc = answer, {"error": {"message": f"status {answer}"}}
                else:
                    status, doc = 200, {"choices": [{"message": {"content": answer}}]}
                reply = json.dumps(doc).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(reply)))
                self.end_headers()
                self.wfile.write(reply)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # a short poll keeps shutdown() from waiting out the default 0.5 s
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_port}"

    def shutdown(self) -> None:
        self._server.shutdown()
        self._thread.join(timeout=5)

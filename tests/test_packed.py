"""Packed batches: one graph per batch must compute what one graph per
utterance computes, and batch chunking must not move any output."""

import numpy as np
import pytest

from serlab import model
from serlab import numerics as nm
from serlab.dataio import SynthConfig, gen_synthetic
from serlab.trainer import (
    Checkpoint, TrainConfig, build_model, predict, train_stage1, train_stage2,
)

from helpers import check_gradients, oracle_cross_attention, oracle_encode_batch

CFGS = {
    "speech": model.EncoderCfg("speech", frame_dim=5, hidden_dim=4, out_dim=6),
    "text": model.EncoderCfg("text", frame_dim=5, hidden_dim=4, out_dim=6),
}

LENGTHS = {
    "mixed 1-10": [3, 10, 1, 7, 2, 9, 4, 1, 6, 8, 5],
    "batch of one": [7],
    "one frame": [1],
}


def _grads(arrays, weights, forward):
    """Parameter gradients of sum(weights * forward(view))."""
    store = nm.ParamStore()
    view = {name: store.add(name, arr) for name, arr in arrays.items()}
    out = forward(view)
    nm.backward((out * nm.tensor(weights)).sum(), store)
    return out.data, store.grads


@pytest.mark.parametrize("modality", ["speech", "text"])
@pytest.mark.parametrize("case", list(LENGTHS))
def test_packed_encoder_matches_per_utterance_oracle(modality, case):
    cfg = CFGS[modality]
    rng = np.random.default_rng(11)
    arrays = model.init_params(model.encoder_shapes(cfg), rng)
    if modality == "speech":
        arrays["att.v"] = rng.uniform(-2.0, 2.0, size=4)  # far from uniform attention
    seqs = [rng.normal(size=(n, 5)) for n in LENGTHS[case]]
    weights = rng.normal(size=(len(seqs), 6))
    frames, segments = model.pack(seqs)

    packed, packed_grads = _grads(
        arrays, weights, lambda p: model.encoder_forward(cfg, p, frames, segments)
    )
    oracle, oracle_grads = _grads(
        arrays, weights.ravel(), lambda p: oracle_encode_batch(cfg, p, seqs)
    )
    assert packed.shape == (len(seqs), 6)
    assert np.max(np.abs(packed.ravel() - oracle)) <= 1e-12
    for name in arrays:
        assert np.max(np.abs(packed_grads[name] - oracle_grads[name])) <= 1e-12, name


XATTN_LENGTHS = {  # (speech lengths, text lengths)
    "mixed 1-10": ([3, 10, 1, 7, 2, 9, 4, 1, 6, 8, 5], [5, 1, 8, 2, 10, 3, 7, 9, 1, 4, 6]),
    "batch of one": ([7], [4]),
    "one-frame speech": ([1, 1, 1], [4, 2, 6]),
    "one-frame text": ([5, 3, 7], [1, 1, 1]),
}


def _under(view, prefix):
    return {name[len(prefix):]: t for name, t in view.items() if name.startswith(prefix)}


@pytest.mark.parametrize("case", list(XATTN_LENGTHS))
def test_packed_cross_attention_matches_per_utterance_oracle(case):
    rng = np.random.default_rng(12)
    fuse = model.init_params(model.cross_attention_shapes(4, 5, 3), rng)
    arrays = {f"fusion.{n}": a for n, a in fuse.items()}
    arrays["fusion.q.W"] = arrays["fusion.q.W"] * 4.0  # far from uniform attention
    head = model.init_params(model.head_shapes(3, 8), rng)
    arrays.update({f"head.{n}": a for n, a in head.items()})
    speech_lengths, text_lengths = XATTN_LENGTHS[case]
    hs = [rng.normal(size=(n, 4)) for n in speech_lengths]
    ht = [rng.normal(size=(n, 5)) for n in text_lengths]
    weights = rng.normal(size=(len(hs), 8))
    (Hs, speech), (Ht, text) = model.pack(hs), model.pack(ht)

    def packed_head(p):
        fused = model.cross_attention_fuse(
            nm.tensor(Hs), nm.tensor(Ht), _under(p, "fusion."), speech, text
        )
        return model.fusion_head_forward("mish", _under(p, "head."), fused)

    def oracle_head(p):
        return nm.concat([
            model.fusion_head_forward(
                "mish", _under(p, "head."), oracle_cross_attention(s, t, _under(p, "fusion."))
            )
            for s, t in zip(hs, ht)
        ])

    packed, packed_grads = _grads(arrays, weights, packed_head)
    oracle, oracle_grads = _grads(arrays, weights.ravel(), oracle_head)
    assert packed.shape == (len(hs), 8)
    assert np.max(np.abs(packed.ravel() - oracle)) <= 1e-12
    for name in arrays:
        assert np.max(np.abs(packed_grads[name] - oracle_grads[name])) <= 1e-12, name


def test_one_frame_sequence_has_exact_eps_std():
    rng = np.random.default_rng(3)
    store = nm.ParamStore()
    W, b = store.add("W", rng.normal(size=(3, 3))), store.add("b", rng.normal(size=3))
    v = store.add("v", rng.normal(size=3))
    seqs = [rng.normal(size=(n, 3)) for n in (4, 1, 2)]
    H, segments = model.pack(seqs)
    pooled = model.attentive_stat_pool(nm.tensor(H), W, b, v, segments).data
    assert np.array_equal(pooled[1, :3], seqs[1][0])
    assert np.all(pooled[1, 3:] == np.sqrt(model.VAR_EPS))


def test_packed_attentive_pool_finite_differences():
    rng = np.random.default_rng(42)
    segments = model.Segments.of([2, 1, 3])
    arrays = {
        "H": rng.normal(size=(6, 3)),
        "W": rng.uniform(-0.5, 0.5, size=(3, 3)),
        "b": rng.uniform(-0.2, 0.2, size=3),
        "v": rng.uniform(-0.5, 0.5, size=3),
    }
    weights = rng.normal(size=(3, 6))
    check_gradients(
        lambda s: (model.attentive_stat_pool(s["H"], s["W"], s["b"], s["v"], segments)
                   * nm.tensor(weights)).sum(),
        arrays,
    )


def test_packed_mean_pool_finite_differences():
    rng = np.random.default_rng(43)
    segments = model.Segments.of([3, 1, 2])
    weights = rng.normal(size=(3, 4))
    check_gradients(
        lambda s: (model.mean_pool(s["H"], segments) * nm.tensor(weights)).sum(),
        {"H": rng.normal(size=(6, 4))},
    )


def test_segments_reject_empty_sequences_and_row_mismatch():
    with pytest.raises(ValueError, match="empty sequence"):
        model.Segments.of([2, 0, 1])
    with pytest.raises(ValueError, match="no sequences"):
        model.Segments.of([])
    with pytest.raises(ValueError, match="packed batch of 3"):
        model.mean_pool(nm.tensor(np.ones((4, 2))), model.Segments.of([1, 2]))


# ---------------------------------------------------------------------------
# chunked scoring and determinism


@pytest.fixture(scope="module")
def records():
    cfg = SynthConfig(
        class_counts=(12,) * 8, separation=1.5, noise_sigma=0.3,
        split_fractions=(0.6, 0.4, 0.0), seed=91,
    )
    return gen_synthetic(cfg)


def _stage1(task, modality, loss, seed, **kw):
    base = dict(stage=1, task=task, modality=modality, loss=loss, learning_rate=0.01,
                epochs=2, seed=seed, batch_size=16)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def checkpoints(records):
    speech = train_stage1(_stage1("categorical", "speech", "focal", 1), records)
    text = train_stage1(_stage1("attributes", "text", "mse", 2), records)
    xattn = train_stage2(
        TrainConfig(stage=2, task="attributes", fusion="cross_attention", learning_rate=0.01,
                    epochs=2, seed=3, batch_size=16),
        speech, text, records,
    )
    concat = train_stage2(
        TrainConfig(stage=2, task="categorical", fusion="concat", learning_rate=0.01,
                    epochs=2, seed=4, batch_size=16),
        speech, text, records,
    )
    return {"speech": speech, "text": text, "xattn": xattn, "concat": concat}


def _with_batch_size(ckpt, batch_size):
    meta = dict(ckpt.metadata, config=dict(ckpt.metadata["config"], batch_size=batch_size))
    return Checkpoint(tensors=ckpt.tensors, metadata=meta)


@pytest.mark.parametrize("name", ["speech", "text", "xattn", "concat"])
def test_predict_independent_of_chunk_size(records, checkpoints, name):
    ckpt = checkpoints[name]
    dev = [r for r in records if r.split == "dev"]
    full = predict(ckpt, dev, clamp=False)
    single = predict(_with_batch_size(ckpt, 1), dev, clamp=False)
    assert single.ids == full.ids
    assert single.labels == full.labels
    for rid in full.ids:
        if full.task == "categorical":
            assert np.max(np.abs(single.logits[rid] - full.logits[rid])) <= 1e-12
        else:
            assert np.max(np.abs(np.subtract(single.attributes[rid], full.attributes[rid]))) <= 1e-12


@pytest.mark.parametrize("task,loss", [("categorical", "focal"), ("attributes", "mse")])
def test_dev_metrics_independent_of_chunk_size(records, task, loss):
    # at lr 0 the parameters never move, so only the dev chunking differs
    dev = {
        bs: train_stage1(_stage1(task, "speech", loss, 4, learning_rate=0.0, epochs=1,
                                 batch_size=bs), records).metadata["dev_metrics"]
        for bs in (1, 16)
    }
    assert dev[1].keys() == dev[16].keys()
    for key in dev[1]:
        assert abs(dev[1][key] - dev[16][key]) <= 1e-12, key


def test_identical_runs_write_identical_checkpoints(records, checkpoints, tmp_path):
    speech, text = checkpoints["speech"], checkpoints["text"]
    cfg = TrainConfig(stage=2, task="categorical", fusion="cross_attention", learning_rate=0.01,
                      epochs=2, seed=5, batch_size=16)
    blobs = []
    for i in range(2):
        s1 = train_stage1(_stage1("attributes", "text", "ccc_loss", 6), records)
        s1.save(tmp_path / f"s1_{i}.fckp")
        train_stage2(cfg, speech, text, records).save(tmp_path / f"s2_{i}.fckp")
        blobs.append([(tmp_path / f"s{k}_{i}.fckp").read_bytes() for k in (1, 2)])
    assert blobs[0] == blobs[1]


def _graph_nodes(root) -> int:
    seen, todo = {id(root)}, [root]
    while todo:
        for p in todo.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


def test_cross_attention_graph_size_independent_of_batch_size(records, checkpoints):
    ckpt = checkpoints["xattn"]
    params = nm.ParamStore()
    for name, arr in ckpt.tensors.items():
        params.add(name, arr)
    net = build_model(ckpt.metadata, params)
    dev = [r for r in records if r.split == "dev"]
    assert _graph_nodes(net.forward(dev[:2])) == _graph_nodes(net.forward(dev[:16]))


STEP_CASES = [  # (task, loss, batch size); CCC needs two samples a batch
    (task, loss, batch_size)
    for task, loss in (("categorical", "focal"), ("categorical", "wce"),
                       ("attributes", "mse"), ("attributes", "ccc_loss"))
    for batch_size in (1, 32) if (loss, batch_size) != ("ccc_loss", 1)
]


@pytest.mark.parametrize("modality,limit", [("speech", 25), ("text", 20)])
@pytest.mark.parametrize("task,loss,batch_size", STEP_CASES)
def test_stage1_step_graph_stays_small(records, monkeypatch, modality, limit, task, loss,
                                       batch_size):
    # the nodes reachable from each step's loss, counted as the benchmark's
    # tracer counts them: a fixed few per layer, whatever the batch size
    sizes, real = [], nm.backward

    def counting(loss_node, params=None):
        sizes.append(_graph_nodes(loss_node))
        return real(loss_node, params)

    monkeypatch.setattr(nm, "backward", counting)
    train_stage1(_stage1(task, modality, loss, 8, epochs=1, batch_size=batch_size), records)
    assert sizes and max(sizes) <= limit

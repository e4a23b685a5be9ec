"""End-to-end acceptance suite.

One test per numbered criterion, each at its stated tolerance, printing a
single pass line on success.  Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the pass lines inline).
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from serlab import losses, metrics, model
from serlab import numerics as nm
from serlab.cli import cli_dispatch
from serlab.dataio import (
    SynthConfig,
    gen_synthetic,
    read_checkpoint,
    read_embeddings,
    read_labels,
    write_checkpoint,
    write_embeddings,
)
from serlab.llmproto import (
    LlmEndpointConfig,
    build_attribute_prompt,
    build_categorical_prompt,
    parse_attribute_response,
    run_llm_eval,
)
from serlab.sampling import balanced_batches
from serlab.trainer import TrainConfig, predict, train_stage1, train_stage2

from helpers import MockChatServer, check_gradients

GOLDEN_DIR = __import__("pathlib").Path(__file__).parent / "golden"


def _np_softmax(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# criterion 1: gradient suite

def _check_op_groups(rng):
    a = rng.uniform(-1.5, 1.5, size=5)
    b = rng.uniform(-1.5, 1.5, size=5)
    check_gradients(
        lambda s: (nm.mish(s["a"]) * nm.tanh(s["b"]) + nm.tanh(s["a"]) - nm.square(s["b"])).sum(),
        {"a": a.copy(), "b": b.copy()},
    )
    r = rng.uniform(0.1, 1.5, size=5) * rng.choice([-1.0, 1.0], size=5)  # away from the kink
    check_gradients(lambda s: (nm.relu(s["r"]) * nm.tensor(a)).sum(), {"r": r})
    c = rng.uniform(0.4, 2.0, size=5)
    d = rng.uniform(0.5, 2.0, size=5)
    check_gradients(
        lambda s: nm.div(nm.log(nm.sqrt(s["c"]) + 1.0) * nm.powf(s["c"], 1.7), nm.square(s["d"])).mean()
        + nm.exp(s["c"]).sum(),
        {"c": c.copy(), "d": d.copy()},
    )
    m = rng.uniform(-1, 1, size=(3, 3))
    u = rng.uniform(-1, 1, size=3)
    p = rng.uniform(-1, 1, size=2)
    q = rng.uniform(-1, 1, size=1)
    w = rng.uniform(-1, 1, size=3)

    def normalised_exp(s):
        e = nm.exp(nm.concat([s["u"] @ s["m"], nm.concat([s["p"], s["q"]])]))
        return (e / e.sum() * nm.tensor(np.concatenate([w, w]))).sum() + s["m"].mean(axis=0).sum()

    check_gradients(normalised_exp, {"m": m.copy(), "u": u.copy(), "p": p.copy(), "q": q.copy()})
    logits = rng.normal(size=(3, 8))
    targets = rng.integers(0, 8, size=3)
    for gamma in (0.0, 0.5, 2.0):
        check_gradients(
            lambda s: (nm.focal_terms(s["z"], targets, gamma) * nm.tensor(w)).sum(),
            {"z": logits.copy()},
        )
    truth = rng.uniform(-1, 1, size=(2, 3))
    check_gradients(
        lambda s: (nm.ccc_columns(s["x"], truth) * nm.tensor(w)).sum(),
        {"x": rng.uniform(-1, 1, size=(2, 3))},
    )
    A = rng.uniform(-1, 1, size=(2, 3))
    B = rng.uniform(-1, 1, size=(3, 2))
    x = rng.uniform(-1, 1, size=3)
    y = rng.uniform(-1, 1, size=2)
    check_gradients(
        lambda s: (s["A"] @ s["B"]).sum() + (s["A"] @ s["x"]).sum() + (s["y"] @ s["A"]).sum()
        + s["x"] @ s["x"],
        {"A": A.copy(), "B": B.copy(), "x": x.copy(), "y": y.copy()},
    )


def _check_composites(rng):
    # the dense layer at each activation, on a batch and on one row; relu
    # pre-activations pushed away from the kink
    w = rng.normal(size=4)
    for activation in ("none", "tanh", "mish", "relu"):
        layer = {"x": rng.uniform(-1, 1, size=(3, 2)), "x1": rng.uniform(-1, 1, size=2),
                 "W": rng.uniform(-1, 1, size=(2, 4)), "b": rng.uniform(-0.5, 0.5, size=4)}
        while activation == "relu" and np.min(np.abs(np.vstack(
                [layer["x"], layer["x1"]]) @ layer["W"] + layer["b"])) < 1e-3:
            layer["b"] = layer["b"] + 0.01
        check_gradients(
            lambda s: (nm.dense(s["x"], s["W"], s["b"], activation) * nm.tensor(w)).sum()
            + nm.dense(s["x1"], s["W"], s["b"], activation) @ nm.tensor(w),
            layer,
        )

    # the segment ops over a ragged batch, then attentive statistics pooling
    lengths = np.array([2, 1, 3])
    offsets = np.cumsum(lengths) - lengths
    weights = rng.normal(size=(3, 6))
    check_gradients(
        lambda s: (nm.segment_stat_pool(s["H"], s["scores"], offsets, lengths)
                   * nm.tensor(weights)).sum()
        + (nm.segment_mean(s["H"], offsets, lengths) * nm.tensor(weights[:, :3])).sum(),
        {"H": rng.normal(size=(6, 3)), "scores": rng.normal(size=6)},
    )
    h = rng.normal(size=(3, 3))
    pool = {
        "W": rng.uniform(-0.5, 0.5, size=(3, 3)),
        "b": rng.uniform(-0.2, 0.2, size=3),
        "v": rng.uniform(-0.5, 0.5, size=3),
    }
    one = model.Segments.of([3])
    check_gradients(
        lambda s: model.attentive_stat_pool(nm.tensor(h), s["W"], s["b"], s["v"], one).sum(),
        {k: v.copy() for k, v in pool.items()},
    )

    # cross-attention fusion
    xa = model.init_params(model.cross_attention_shapes(3, 3, 3), rng)
    hs = rng.normal(size=(3, 3))
    ht = rng.normal(size=(2, 3))
    check_gradients(
        lambda s: nm.square(model.cross_attention_fuse(
            nm.tensor(hs), nm.tensor(ht), s, model.Segments.of([3]), model.Segments.of([2])
        )).sum(),
        {k: v.copy() for k, v in xa.items()},
    )

    # both head activations; relu pre-activations pushed away from the kink
    fused = rng.uniform(0.3, 1.2, size=4)
    for activation in ("mish", "relu"):
        head = model.init_params(model.head_shapes(4, model.TASK_OUT_DIMS["attributes"]), rng)
        if activation == "relu":
            pre = fused @ head["fc1.W"] + head["fc1.b"]
            while np.min(np.abs(pre)) < 1e-3:
                head["fc1.b"] = head["fc1.b"] + 0.01
                pre = fused @ head["fc1.W"] + head["fc1.b"]
        check_gradients(
            lambda s: nm.square(
                model.fusion_head_forward(activation, s, nm.tensor(fused))
            ).sum(),
            {k: v.copy() for k, v in head.items()},
        )

    # focal loss through softmax
    logits = rng.normal(size=(4, 8))
    targets = rng.integers(0, 8, size=4)
    check_gradients(
        lambda s: losses.focal_loss(s["logits"], targets, losses.FocalConfig(gamma=2.0)),
        {"logits": logits.copy()},
    )

    # ccc loss
    truth = rng.uniform(1, 7, size=(5, 3))
    pred = truth + rng.normal(scale=0.4, size=(5, 3))
    check_gradients(lambda s: losses.ccc_loss(s["pred"], truth), {"pred": pred.copy()})


def test_criterion_01_gradient_suite_20_seeds_under_30s():
    start = time.monotonic()
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        _check_op_groups(rng)
        _check_composites(rng)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
    print(f"[criterion 1] PASS - gradient suite, 20 seeds, rel err < 1e-6, {elapsed:.1f}s")


def test_criterion_01_checks_every_op(monkeypatch):
    """Every op ``numerics`` exports runs inside criterion 1's
    ``check_gradients`` calls, ``matmul`` at all four rank pairs, and the
    module docstring lists each op."""
    ops = [name for name in nm.__all__ if name not in ("Tensor", "ParamStore", "tensor", "backward")]
    checked: dict[str, set] = {name: set() for name in ops}
    inside, real_check = [], check_gradients

    def counted(name, fn):
        def op(*args, **kwargs):
            if inside:
                checked[name].add(tuple(np.ndim(getattr(a, "data", a)) for a in args[:2]))
            return fn(*args, **kwargs)
        return op

    def checking(*args, **kwargs):
        inside.append(True)
        try:
            return real_check(*args, **kwargs)
        finally:
            inside.pop()

    for name in ops:
        monkeypatch.setattr(nm, name, counted(name, getattr(nm, name)))
    monkeypatch.setitem(globals(), "check_gradients", checking)
    rng = np.random.default_rng(1000)
    _check_op_groups(rng)
    _check_composites(rng)
    assert [name for name in ops if not checked[name]] == []
    assert {(1, 1), (1, 2), (2, 1), (2, 2)} <= checked["matmul"]
    assert [name for name in ops if f"``{name}``" not in nm.__doc__] == []


# ---------------------------------------------------------------------------
# criterion 2: loss identities

def test_criterion_02_loss_identities_1000_batches():
    rng = np.random.default_rng(2)
    max_focal_err = 0.0
    max_wce_err = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        logits = rng.normal(scale=2.0, size=(n, 8))
        targets = rng.integers(0, 8, size=n)
        ce = float(np.mean(-np.log(_np_softmax(logits)[np.arange(n), targets])))
        focal = losses.focal_loss(nm.tensor(logits), targets, losses.FocalConfig(gamma=0.0)).item()
        wce = losses.weighted_cross_entropy(
            nm.tensor(logits), targets, losses.ClassWeights.uniform()
        ).item()
        max_focal_err = max(max_focal_err, abs(focal - ce))
        max_wce_err = max(max_wce_err, abs(wce - ce))
    assert max_focal_err < 1e-12
    assert max_wce_err < 1e-12
    print(
        "[criterion 2] PASS - focal(gamma=0)==CE and WCE(uniform)==CE on 1000 batches "
        f"(max errs {max_focal_err:.2e}, {max_wce_err:.2e})"
    )


# ---------------------------------------------------------------------------
# criterion 3: CCC oracle

def test_criterion_03_ccc_oracle():
    rng = np.random.default_rng(3)
    x = rng.uniform(1, 7, size=50)
    assert abs(losses.ccc(x, x) - 1.0) < 1e-12
    assert abs(losses.ccc(np.full(50, 4.0), x)) < 1e-12
    with pytest.raises(ValueError, match="degenerate"):
        losses.ccc(np.full(4, 2.0), np.full(4, 2.0))
    assert abs(losses.ccc([2.0, 3.0, 4.0], [1.0, 2.0, 3.0]) - 4.0 / 7.0) < 1e-12

    truth = rng.uniform(1, 7, size=300)
    pred = truth + rng.normal(scale=0.5, size=300)
    bins = metrics.binned_ccc(pred, truth, [1.0, 7.0])
    assert bins[0].ccc == losses.ccc(pred, truth)
    print("[criterion 3] PASS - ccc identities, 4/7 hand value, full-range bin == global")


# ---------------------------------------------------------------------------
# criterion 4: closed forms

def test_criterion_04_focal_and_mish_closed_forms():
    logits = np.full((1, 8), -1000.0)
    logits[0, 0] = math.log(9.0)
    logits[0, 1] = 0.0
    focal = losses.focal_loss(nm.tensor(logits), [0], losses.FocalConfig(gamma=2.0)).item()
    assert abs(focal - 0.0010536) < 1e-7

    assert abs(nm.mish(nm.tensor([1.0])).data[0] - 0.865098) < 1e-6

    store = nm.ParamStore()
    p = store.add("x", [0.0])
    nm.backward(nm.mish(p).sum(), store)
    assert abs(store.grad("x")[0] - 0.6) < 1e-9
    print("[criterion 4] PASS - focal(0.9, gamma=2), mish(1), mish'(0) closed forms")


# ---------------------------------------------------------------------------
# criterion 5: F1-micro == accuracy

def test_criterion_05_micro_equals_accuracy_1000_labelings():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        pred = [metrics.EMOTION_CODES[i] for i in rng.integers(0, 8, size=n)]
        truth = [metrics.EMOTION_CODES[i] for i in rng.integers(0, 8, size=n)]
        rep = metrics.classification_metrics(pred, truth)
        assert rep.f1_micro == rep.accuracy
    print("[criterion 5] PASS - F1-micro == accuracy exactly on 1000 random labelings")


# ---------------------------------------------------------------------------
# criterion 6: balanced sampler

def test_criterion_06_balanced_sampler_100_seeds():
    rng = np.random.default_rng(6)
    labels = []
    for c in range(8):
        labels.extend([c] * int(rng.integers(3, 40)))
    for seed in range(100):
        plan = balanced_batches(labels, 32, seed=seed)
        for batch in plan:
            assert len(batch) == 32
            counts = np.bincount([labels[i] for i in batch], minlength=8)
            assert np.array_equal(counts, np.full(8, 4)), counts
    print("[criterion 6] PASS - every batch holds exactly 4 of each class, 100 seeded plans")


# ---------------------------------------------------------------------------
# criteria 7-10: training behavior

@pytest.fixture(scope="module")
def small_records():
    cfg = SynthConfig(
        class_counts=(14,) * 8, separation=1.5, noise_sigma=0.3,
        split_fractions=(0.7, 0.3, 0.0), seed=99,
    )
    return gen_synthetic(cfg)


@pytest.fixture(scope="module")
def small_stage1(small_records):
    speech = train_stage1(
        TrainConfig(stage=1, task="categorical", modality="speech", loss="focal",
                    learning_rate=0.01, epochs=3, seed=301, batch_size=16),
        small_records,
    )
    text = train_stage1(
        TrainConfig(stage=1, task="categorical", modality="text", loss="focal",
                    learning_rate=0.01, epochs=3, seed=302, batch_size=16),
        small_records,
    )
    return speech, text


def test_criterion_07_freeze_contract_5_runs(small_records, small_stage1):
    speech, text = small_stage1
    encoders = ("speech.", "text.")
    source = {n: a.tobytes() for c in (speech, text) for n, a in c.tensors.items()
              if n.startswith(encoders)}
    for seed in range(5):
        fusion = "cross_attention" if seed % 2 else "concat"
        cfg = TrainConfig(
            stage=2, task="attributes", fusion=fusion, activation="mish",
            learning_rate=0.005, epochs=2, seed=seed, batch_size=16,
        )
        ckpt = train_stage2(cfg, speech, text, small_records)
        frozen = {n: a.tobytes() for n, a in ckpt.tensors.items() if n.startswith(encoders)}
        assert frozen == source, f"seed {seed} broke the freeze"
    print("[criterion 7] PASS - bytes of every frozen encoder tensor unchanged on 5 runs")


def test_criterion_08_synthetic_end_to_end():
    start = time.monotonic()
    cfg = SynthConfig(
        class_counts=(300,) * 8, separation=1.5, noise_sigma=0.3,
        split_fractions=(2000 / 2400, 400 / 2400, 0.0), seed=2025,
    )
    records = gen_synthetic(cfg)
    assert sum(r.split == "train" for r in records) == 2000
    assert sum(r.split == "dev" for r in records) == 400

    # from-scratch toy encoders need a larger step size than the
    # fine-tuning defaults; epochs stay at the stage defaults
    speech = train_stage1(
        TrainConfig(stage=1, task="categorical", modality="speech", loss="focal",
                    learning_rate=0.005, epochs=20, seed=42),
        records,
    )
    f1_micro = speech.metadata["dev_metrics"]["f1_micro"]
    assert f1_micro >= 0.95, f"stage-1 dev F1-micro {f1_micro:.4f} < 0.95"

    text = train_stage1(
        TrainConfig(stage=1, task="categorical", modality="text", loss="focal",
                    learning_rate=0.005, epochs=20, seed=43),
        records,
    )
    stage2 = train_stage2(
        TrainConfig(stage=2, task="attributes", fusion="concat", activation="mish",
                    learning_rate=0.003, epochs=5, seed=44),
        speech, text, records,
    )
    valence = stage2.metadata["dev_metrics"]["ccc_valence"]
    assert valence >= 0.9, f"stage-2 dev valence CCC {valence:.4f} < 0.9"

    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"end-to-end run took {elapsed:.0f}s"
    print(
        f"[criterion 8] PASS - stage-1 F1-micro {f1_micro:.3f} >= 0.95, "
        f"stage-2 valence CCC {valence:.3f} >= 0.9, {elapsed:.0f}s"
    )


def test_criterion_09_imbalance_direction_5_seeds():
    def minority_recall(preds, records):
        hits = sum(1 for r in records if r.emotion != "A" and preds.labels[r.id] == r.emotion)
        total = sum(1 for r in records if r.emotion != "A")
        return hits / total

    recall_wins = 0
    micro_wins = 0
    for seed in range(5):
        cfg = SynthConfig(
            class_counts=(400, 20, 20, 20, 20, 20, 20, 20), separation=0.45,
            noise_sigma=0.3, split_fractions=(0.75, 0.25, 0.0), seed=100 + seed,
        )
        records = gen_synthetic(cfg)
        dev = [r for r in records if r.split == "dev"]
        scores = {}
        for name, loss, gamma in (("ce", "focal", 0.0), ("focal", "focal", 2.0), ("wce", "wce", 2.0)):
            tc = TrainConfig(
                stage=1, task="categorical", modality="speech", loss=loss,
                focal_gamma=gamma, learning_rate=0.01, epochs=16, seed=seed,
            )
            ckpt = train_stage1(tc, records)
            preds = predict(ckpt, dev)
            rep = metrics.classification_metrics(
                [preds.labels[r.id] for r in dev], [r.emotion for r in dev]
            )
            scores[name] = (minority_recall(preds, dev), rep.f1_micro)
        recall_wins += scores["focal"][0] >= scores["ce"][0]
        micro_wins += scores["focal"][1] >= scores["wce"][1]
    assert recall_wins == 5, f"focal minority recall beat CE on only {recall_wins}/5 seeds"
    assert micro_wins >= 3, f"focal F1-micro beat WCE on only {micro_wins}/5 seeds"
    print(
        f"[criterion 9] PASS - focal minority recall >= CE on {recall_wins}/5, "
        f"focal F1-micro >= WCE on {micro_wins}/5 seeds"
    )


def test_criterion_10_full_pipeline_determinism(tmp_path):
    def run(root):
        root.mkdir()
        data = root / "data"
        args = [
            ["gen-synth", "--class-counts", ",".join(["16"] * 8), "--separation", "1.5",
             "--seed", "7", "--out", str(data)],
            ["train-stage1", "--data", str(data), "--modality", "speech", "--task",
             "categorical", "--lr", "0.01", "--epochs", "2", "--seed", "1",
             "--out", str(root / "s.fckp"), "--log", str(root / "s.jsonl")],
            ["train-stage1", "--data", str(data), "--modality", "text", "--task",
             "categorical", "--lr", "0.01", "--epochs", "2", "--seed", "2",
             "--out", str(root / "t.fckp")],
            ["train-stage2", "--data", str(data), "--task", "attributes", "--fusion",
             "concat", "--activation", "mish", "--lr", "0.005", "--epochs", "2",
             "--seed", "3", "--speech-ckpt", str(root / "s.fckp"), "--text-ckpt",
             str(root / "t.fckp"), "--out", str(root / "s2.fckp")],
            ["predict", "--ckpt", str(root / "s2.fckp"), "--data", str(data),
             "--split", "dev", "--out", str(root / "preds.csv")],
            ["evaluate", "--pred", str(root / "preds.csv"), "--labels",
             str(data / "labels.csv"), "--split", "dev", "--out", str(root / "report")],
        ]
        for argv in args:
            assert cli_dispatch(argv) == 0, argv

    run(tmp_path / "a")
    run(tmp_path / "b")
    compared = []
    for rel in ("data/speech.femb", "data/text.femb", "data/labels.csv", "s.fckp",
                "s.jsonl", "t.fckp", "s2.fckp", "preds.csv", "report.csv", "report.json"):
        ba = (tmp_path / "a" / rel).read_bytes()
        bb = (tmp_path / "b" / rel).read_bytes()
        assert ba == bb, f"{rel} differs between identical runs"
        compared.append(rel)
    print(f"[criterion 10] PASS - {len(compared)} pipeline artifacts bit-identical across runs")


# ---------------------------------------------------------------------------
# criterion 11: format round trips

def test_criterion_11_format_round_trips(tmp_path):
    rng = np.random.default_rng(11)
    emb_payloads = 0
    for fi in range(50):
        path = tmp_path / f"e{fi}.femb"
        dim = int(rng.integers(1, 10))
        items = []
        for ri in range(20):
            t = int(rng.integers(1, 8))
            mat = rng.normal(size=(t, dim)).astype(np.float32).astype(np.float64)
            items.append((f"r{fi}-{ri}", mat))
        write_embeddings(path, items)
        back = read_embeddings(path)
        for (ida, a), (idb, b) in zip(items, back):
            assert ida == idb and np.array_equal(a, b)
            emb_payloads += 1

    ckpt_payloads = 0
    for fi in range(50):
        path = tmp_path / f"c{fi}.fckp"
        tensors = {}
        for ti in range(20):
            shape = tuple(int(d) for d in rng.integers(1, 5, size=int(rng.integers(1, 4))))
            tensors[f"t{ti}"] = rng.normal(size=shape)
        write_checkpoint(path, tensors, {"file": fi})
        back, meta = read_checkpoint(path)
        assert meta == {"file": fi}
        for name in tensors:
            assert np.array_equal(back[name], tensors[name])
            ckpt_payloads += 1
    assert emb_payloads == 1000 and ckpt_payloads == 1000

    bad_attr = tmp_path / "bad_attr.csv"
    bad_attr.write_text(
        "id,split,emotion,arousal,valence,dominance\n"
        "u1,train,A,,,\n"
        "u2,dev,,2.0,7.5,4.0\n"
    )
    with pytest.raises(ValueError, match=r"line 3.*out of range \[1, 7\]"):
        read_labels(bad_attr)

    bad_code = tmp_path / "bad_code.csv"
    bad_code.write_text("id,split,emotion,arousal,valence,dominance\nu1,train,Q,,,\n")
    with pytest.raises(ValueError, match="line 2.*unknown emotion code"):
        read_labels(bad_code)
    print("[criterion 11] PASS - 1000+1000 payload round trips bit-exact; CSV rejections cite lines")


# ---------------------------------------------------------------------------
# criterion 12: LLM protocol

def test_criterion_12_llm_protocol(tmp_path):
    transcript = "I can't believe it!"
    golden_cat = (GOLDEN_DIR / "prompt_categorical.txt").read_bytes()
    golden_attr = (GOLDEN_DIR / "prompt_attributes.txt").read_bytes()
    assert build_categorical_prompt(transcript).encode("utf-8") == golden_cat
    assert build_attribute_prompt(transcript).encode("utf-8") == golden_attr

    triple, clamped = parse_attribute_response("[1.0, 2.3, 4.7]")
    assert triple == (1.0, 2.3, 4.7) and not clamped

    cache = tmp_path / "cache.jsonl"
    items = [(f"u{i}", f"utterance number {i}") for i in range(6)]

    def responder(prompt):
        digest = int(hashlib.sha256(prompt.encode()).hexdigest(), 16)
        return ["Anger", "Happiness", "Neutral", "[2.0, 3.0, 4.0]"][digest % 4]

    server = MockChatServer(lambda p: responder(p))
    ep = LlmEndpointConfig(base_url=server.url, model="mock", cache_path=cache)
    first = run_llm_eval(ep, "categorical", items)
    assert first.requests_made == len(items)
    server.shutdown()  # no network available from here on

    replay = run_llm_eval(ep, "categorical", items)
    assert replay.requests_made == 0
    assert replay.cache_hits == len(items)
    assert replay.predictions.ids == first.predictions.ids
    assert replay.predictions.labels == first.predictions.labels
    assert len(replay.failures) == len(first.failures)

    from serlab.dataio import write_predictions

    p1, p2 = tmp_path / "first.csv", tmp_path / "replay.csv"
    write_predictions(p1, first.predictions)
    write_predictions(p2, replay.predictions)
    assert p1.read_bytes() == p2.read_bytes()
    print("[criterion 12] PASS - golden prompts byte-exact; cached replay bit-identical, 0 requests")

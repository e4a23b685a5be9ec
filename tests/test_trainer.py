import dataclasses
import json
import re

import numpy as np
import pytest

from serlab import model
from serlab import numerics as nm
from serlab.dataio import (
    SynthConfig,
    UtteranceRecord,
    gen_synthetic,
    load_dataset,
    write_dataset,
    write_predictions,
)
from serlab.metrics import attribute_metrics, classification_metrics
from serlab.trainer import (
    AdamState,
    Checkpoint,
    TrainConfig,
    TrainingError,
    _check_inputs,
    adam_step,
    build_model,
    predict,
    sharing_frozen_rows,
    train_stage1,
    train_stage2,
)

from helpers import OracleAdam, oracle_encoder_forward


@pytest.fixture(scope="module")
def tiny_records():
    cfg = SynthConfig(
        class_counts=(14,) * 8, separation=1.5, noise_sigma=0.3,
        split_fractions=(0.7, 0.3, 0.0), seed=77,
    )
    return gen_synthetic(cfg)


def _quick_cfg(**kw):
    base = dict(
        stage=1, task="categorical", modality="speech", loss="focal",
        learning_rate=0.01, epochs=2, seed=1, batch_size=16,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestAdam:
    def _store(self, values):
        store = nm.ParamStore()
        store.add("w", values)
        return store

    def test_zero_gradients_leave_params_and_moments_unchanged(self):
        store = self._store(np.array([1.5, -2.0]))
        before = store.value("w").copy()
        state = AdamState.for_params(store, ["w"])
        adam_step(store, {"w": np.zeros(2)}, state, lr=0.1)
        assert np.array_equal(store.value("w"), before)
        assert np.array_equal(state.views(state.flat_m)["w"], np.zeros(2))
        assert np.array_equal(state.views(state.flat_v)["w"], np.zeros(2))

    def test_first_step_with_unit_gradient_is_minus_lr(self):
        store = self._store(np.array([0.0]))
        state = AdamState.for_params(store, ["w"])
        adam_step(store, {"w": np.ones(1)}, state, lr=0.01)
        # bias-corrected m_hat / sqrt(v_hat) == 1 exactly on the first step
        expected = -0.01 * 1.0 / (1.0 + 1e-8)
        assert abs(store.value("w")[0] - expected) < 1e-15

    def test_identical_gradient_sequences_give_identical_trajectories(self):
        rng = np.random.default_rng(9)
        grads = [rng.normal(size=3) for _ in range(20)]

        def run():
            store = self._store(np.zeros(3))
            state = AdamState.for_params(store, ["w"])
            for g in grads:
                adam_step(store, {"w": g}, state, lr=0.05)
            return store.value("w").copy()

        assert np.array_equal(run(), run())

    def test_flat_update_equals_the_per_tensor_oracle_after_200_steps(self):
        rng = np.random.default_rng(21)
        init = model.init_params(model.encoder_shapes(model.EncoderCfg("speech", 12, 16, 16)), rng)
        stores = [nm.ParamStore(), nm.ParamStore()]
        for store in stores:
            for name, values in init.items():
                store.add(name, values.copy())
        flat, per_tensor = stores
        state = AdamState.for_params(flat, list(init))
        oracle = OracleAdam(per_tensor, list(init))
        for _ in range(200):
            grads = {n: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=v.shape)
                     for n, v in init.items()}
            before = {n: (flat.value(n), flat.value(n).copy()) for n in init}
            adam_step(flat, grads, state, lr=0.01)
            oracle.update(per_tensor, grads, lr=0.01)
            # rebound, never written in place: built graphs may hold the old arrays
            assert all(old.tobytes() == copy.tobytes() for old, copy in before.values())
        m, v = state.views(state.flat_m), state.views(state.flat_v)
        for n in init:
            assert flat.value(n).tobytes() == per_tensor.value(n).tobytes()
            assert m[n].tobytes() == oracle.m[n].tobytes()
            assert v[n].tobytes() == oracle.v[n].tobytes()

    def test_shape_mismatch_rejected(self):
        store = self._store(np.zeros(3))
        state = AdamState.for_params(store, ["w"])
        with pytest.raises(ValueError, match="shape"):
            adam_step(store, {"w": np.zeros(4)}, state, lr=0.1)


class TestStage1:
    def test_zero_lr_keeps_initialization(self, tiny_records):
        cfg = _quick_cfg(learning_rate=0.0, epochs=2, seed=13)
        ckpt = train_stage1(cfg, tiny_records)
        # replicate the seeded initialization order: encoder first, head second
        dim = tiny_records[0].speech_frames.shape[1]
        enc_cfg = model.EncoderCfg("speech", dim, cfg.hidden_dim, cfg.out_dim)
        rng = np.random.default_rng(cfg.seed)
        expected = {
            f"speech.{n}": a
            for n, a in model.init_params(model.encoder_shapes(enc_cfg), rng).items()
        }
        expected.update(
            {f"head.{n}": a
             for n, a in model.init_params(model.head_shapes(cfg.out_dim, 8), rng).items()}
        )
        assert set(ckpt.tensors) == set(expected)
        for name, arr in expected.items():
            assert np.array_equal(ckpt.tensors[name], arr), name

    def test_same_seed_bit_identical_checkpoints(self, tiny_records, tmp_path):
        cfg = _quick_cfg(seed=21)
        p1, p2 = tmp_path / "a.fckp", tmp_path / "b.fckp"
        train_stage1(cfg, tiny_records).save(p1)
        train_stage1(_quick_cfg(seed=21), tiny_records).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_differs(self, tiny_records, tmp_path):
        p1, p2 = tmp_path / "a.fckp", tmp_path / "b.fckp"
        train_stage1(_quick_cfg(seed=1), tiny_records).save(p1)
        train_stage1(_quick_cfg(seed=2), tiny_records).save(p2)
        assert p1.read_bytes() != p2.read_bytes()

    def test_loss_task_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            TrainConfig(stage=1, task="attributes", modality="speech", loss="wce")

    def test_empty_split_rejected(self, tiny_records):
        train_only = [r for r in tiny_records if r.split == "train"]
        with pytest.raises(ValueError, match="empty dev split"):
            train_stage1(_quick_cfg(), train_only)

    def test_stage_guard(self, tiny_records):
        cfg = TrainConfig(stage=2, task="categorical", fusion="concat", seed=0)
        with pytest.raises(ValueError, match="stage == 1"):
            train_stage1(cfg, tiny_records)

    def test_jsonl_log_written(self, tiny_records, tmp_path):
        log = tmp_path / "train.jsonl"
        train_stage1(_quick_cfg(epochs=3), tiny_records, log_path=log)
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert [e["epoch"] for e in lines] == [0, 1, 2]
        assert all("train_loss" in e and "dev" in e for e in lines)

    def test_balanced_sampler_runs(self, tiny_records):
        cfg = _quick_cfg(sampler="balanced", epochs=1)
        ckpt = train_stage1(cfg, tiny_records)
        assert ckpt.metadata["config"]["sampler"] == "balanced"

    def test_attribute_training_with_mse(self, tiny_records):
        cfg = _quick_cfg(task="attributes", loss="mse", epochs=2)
        ckpt = train_stage1(cfg, tiny_records)
        assert "ccc_avg" in ckpt.metadata["dev_metrics"]


@pytest.fixture(scope="module")
def stage1_pair(tiny_records):
    speech = train_stage1(_quick_cfg(seed=31, epochs=4), tiny_records)
    text = train_stage1(_quick_cfg(modality="text", seed=32, epochs=4), tiny_records)
    return speech, text


def _encoder_bytes(*ckpts):
    """The bytes of each checkpoint's encoder tensors, by name."""
    return {n: a.tobytes() for c in ckpts for n, a in c.tensors.items()
            if n.startswith(("speech.", "text."))}


class TestStage2:
    def _cfg(self, **kw):
        base = dict(
            stage=2, task="attributes", fusion="concat", activation="mish",
            learning_rate=0.005, epochs=2, seed=5, batch_size=16,
        )
        base.update(kw)
        return TrainConfig(**base)

    def test_frozen_encoders_bit_identical(self, tiny_records, stage1_pair):
        speech, text = stage1_pair
        before = _encoder_bytes(speech, text)
        ckpt = train_stage2(self._cfg(), speech, text, tiny_records)
        assert _encoder_bytes(ckpt) == before

    def test_head_parameters_move(self, tiny_records, stage1_pair):
        speech, text = stage1_pair
        cfg = self._cfg()
        ckpt = train_stage2(cfg, speech, text, tiny_records)
        rng = np.random.default_rng(cfg.seed)
        head_in = speech.metadata["encoder"]["out_dim"] + text.metadata["encoder"]["out_dim"]
        init = model.init_params(model.head_shapes(head_in, 3), rng)
        assert not np.array_equal(ckpt.tensors["head.fc1.W"], init["fc1.W"])

    def test_cross_attention_fusion_trains(self, tiny_records, stage1_pair):
        speech, text = stage1_pair
        ckpt = train_stage2(self._cfg(fusion="cross_attention"), speech, text, tiny_records)
        assert "fusion.q.W" in ckpt.tensors
        assert _encoder_bytes(ckpt) == _encoder_bytes(speech, text)

    def test_activation_choice_changes_results_with_shared_seed(self, tiny_records, stage1_pair):
        speech, text = stage1_pair
        a = train_stage2(self._cfg(activation="mish"), speech, text, tiny_records)
        b = train_stage2(self._cfg(activation="relu"), speech, text, tiny_records)
        assert not np.array_equal(a.tensors["head.fc1.W"], b.tensors["head.fc1.W"])

    def test_stage_mismatch_in_sources_rejected(self, tiny_records, stage1_pair):
        speech, text = stage1_pair
        stage2 = train_stage2(self._cfg(), speech, text, tiny_records)
        with pytest.raises(ValueError, match="stage-1"):
            train_stage2(self._cfg(), stage2, text, tiny_records)

    def test_modality_mismatch_rejected(self, tiny_records, stage1_pair):
        speech, text = stage1_pair
        with pytest.raises(ValueError, match="speech checkpoint"):
            train_stage2(self._cfg(), text, text, tiny_records)

    def test_missing_tensor_rejected(self, tiny_records, stage1_pair):
        speech, text = stage1_pair
        with pytest.raises(ValueError, match="speech.att.v"):
            broken = Checkpoint(
                tensors={k: v for k, v in speech.tensors.items() if k != "speech.att.v"},
                metadata=speech.metadata,
            )
            train_stage2(self._cfg(), broken, text, tiny_records)

    def test_shared_rows_keep_each_source_pairs_bytes(self, tiny_records, stage1_pair):
        # both pairs encode the same chunks of the same records; only the
        # encoder tensors tell their rows apart
        other = (train_stage1(_quick_cfg(seed=41, epochs=1), tiny_records),
                 train_stage1(_quick_cfg(modality="text", seed=42, epochs=1), tiny_records))

        def run(speech, text):
            ckpt = train_stage2(self._cfg(epochs=1), speech, text, tiny_records)
            preds = predict(ckpt, tiny_records, clamp=False)
            return ckpt.content_id, preds.attributes

        alone = [run(*pair) for pair in (stage1_pair, other)]
        with sharing_frozen_rows():
            shared = [run(*pair) for pair in (stage1_pair, other)]
        assert alone[0] != alone[1]
        assert shared == alone

    def test_sources_recorded(self, tiny_records, stage1_pair):
        speech, text = stage1_pair
        ckpt = train_stage2(self._cfg(), speech, text, tiny_records)
        assert ckpt.metadata["sources"] == {
            "speech": speech.content_id,
            "text": text.content_id,
        }
        assert ckpt.metadata["concat_order"] == ["speech", "text"]

    def test_concat_rows_are_speech_then_text_embeddings(self, tiny_records, stage1_pair):
        speech, text = stage1_pair
        ckpt = train_stage2(self._cfg(epochs=1), speech, text, tiny_records)
        params = nm.ParamStore()
        for name, arr in ckpt.tensors.items():
            params.add(name, arr, trainable=False)
        batch = tiny_records[:7]
        rows = build_model(ckpt.metadata, params).frozen(batch)
        s, t = ckpt.metadata["speech_encoder"], ckpt.metadata["text_encoder"]
        s_cfg = model.EncoderCfg("speech", s["frame_dim"], s["hidden_dim"], s["out_dim"])
        t_cfg = model.EncoderCfg("text", t["frame_dim"], t["hidden_dim"], t["out_dim"])
        assert rows.shape == (7, s["out_dim"] + t["out_dim"])
        for row, r in zip(rows, batch):
            es = oracle_encoder_forward(s_cfg, params.view("speech."), r.speech_frames).data
            et = oracle_encoder_forward(t_cfg, params.view("text."), r.text_tokens).data
            assert np.max(np.abs(row - np.concatenate([es, et]))) <= 1e-12

    @pytest.mark.parametrize("task", ["categorical", "attributes"])
    def test_concat_dev_metrics_reproduced_by_predict(self, tiny_records, stage1_pair, task):
        # training encodes dev in chunks of the batch size, as predict does
        speech, text = stage1_pair
        ckpt = train_stage2(self._cfg(task=task), speech, text, tiny_records)
        dev = [r for r in tiny_records if r.split == "dev"]
        preds = predict(ckpt, dev, clamp=False)
        if task == "categorical":
            rep = classification_metrics([preds.labels[r.id] for r in dev], [r.emotion for r in dev])
            got = {"f1_macro": rep.f1_macro, "f1_micro": rep.f1_micro, "accuracy": rep.accuracy}
        else:
            got = attribute_metrics(
                np.array([preds.attributes[r.id] for r in dev]), np.array([r.attributes for r in dev])
            ).to_dict()
        assert got == ckpt.metadata["dev_metrics"]

    def test_duplicate_record_id_rejected(self, tiny_records, stage1_pair):
        # stage-2 concat reads its encoded rows back by record id
        speech, text = stage1_pair
        twin = dataclasses.replace(next(r for r in tiny_records if r.split == "train"), split="dev")
        records = list(tiny_records) + [twin]
        message = re.escape(f"duplicate record id {twin.id!r}")
        with pytest.raises(ValueError, match=message):
            train_stage2(self._cfg(), speech, text, records)
        with pytest.raises(ValueError, match=message):
            train_stage1(_quick_cfg(), records)


class TestPredict:
    def test_categorical_argmax_and_determinism(self, tiny_records, stage1_pair):
        speech, _ = stage1_pair
        dev = [r for r in tiny_records if r.split == "dev"]
        p1 = predict(speech, dev)
        p2 = predict(speech, dev)
        assert p1.labels == p2.labels
        assert p1.ids == [r.id for r in dev]
        for rid in p1.ids:
            logits = p1.logits[rid]
            assert p1.labels[rid] == "ACDFHNSU"[int(np.argmax(logits))]

    def test_attribute_clamping(self, tiny_records, stage1_pair):
        speech, text = stage1_pair
        cfg = TrainConfig(
            stage=2, task="attributes", fusion="concat", learning_rate=0.005,
            epochs=1, seed=6, batch_size=16,
        )
        ckpt = train_stage2(cfg, speech, text, tiny_records)
        dev = [r for r in tiny_records if r.split == "dev"]
        clamped = predict(ckpt, dev, clamp=True)
        raw = predict(ckpt, dev, clamp=False)
        assert clamped.ids == raw.ids
        for rid in clamped.ids:
            expected = tuple(min(max(v, 1.0), 7.0) for v in raw.attributes[rid])
            assert clamped.attributes[rid] == expected

    def test_missing_modality_features_rejected(self, tiny_records, stage1_pair):
        speech, text = stage1_pair
        cfg = TrainConfig(
            stage=2, task="categorical", fusion="concat", learning_rate=0.005,
            epochs=1, seed=7, batch_size=16,
        )
        ckpt = train_stage2(cfg, speech, text, tiny_records)
        crippled = [
            type(r)(
                id=r.id, split=r.split, speech_frames=r.speech_frames,
                text_tokens=None, emotion=r.emotion, attributes=r.attributes,
            )
            for r in tiny_records[:3]
        ]
        with pytest.raises(ValueError, match="both feature sets"):
            predict(ckpt, crippled)

    def test_checkpoint_save_load_predict_identical(self, tiny_records, stage1_pair, tmp_path):
        speech, _ = stage1_pair
        path = tmp_path / "s1.fckp"
        speech.save(path)
        loaded = Checkpoint.load(path)
        dev = [r for r in tiny_records if r.split == "dev"]
        assert predict(speech, dev).labels == predict(loaded, dev).labels


class TestStoredPrecisionFrames:
    """Records read from FEMB are read-only float32 views, and ``model.pack``
    casts each batch to float64.  Since that cast is exact, every checkpoint
    and prediction equals the one trained on the same records upcast to
    float64, also for batches that mix both dtypes, and no run writes to a
    record's frames."""

    @staticmethod
    def _as(records, dtype_of):
        return [dataclasses.replace(r, speech_frames=r.speech_frames.astype(dtype_of(i)),
                                    text_tokens=r.text_tokens.astype(dtype_of(i)))
                for i, r in enumerate(records)]

    @staticmethod
    def _artifacts(records, tmp_path):
        s1 = dict(stage=1, task="categorical", loss="focal", learning_rate=0.01, epochs=2,
                  batch_size=8)
        speech = train_stage1(TrainConfig(**s1, modality="speech", seed=41), records)
        text = train_stage1(TrainConfig(**s1, modality="text", seed=42), records)
        ckpts = [speech, text] + [
            train_stage2(TrainConfig(stage=2, task="attributes", fusion=fusion,
                                     learning_rate=0.01, epochs=2, seed=43, batch_size=8),
                         speech, text, records)
            for fusion in ("concat", "cross_attention")
        ]
        out = []
        for i, ckpt in enumerate(ckpts):
            path = tmp_path / f"preds{i}.csv"
            write_predictions(path, predict(ckpt, records))
            out.append((ckpt.content_id, path.read_bytes()))
        return out

    def test_float32_views_give_the_float64_artifacts(self, tmp_path):
        cfg = SynthConfig(class_counts=(6,) * 8, frame_range=(3, 9),
                          split_fractions=(0.5, 0.25, 0.25), seed=13)
        write_dataset(tmp_path / "d", gen_synthetic(cfg))
        read = load_dataset(tmp_path / "d", ["speech", "text"])
        frames = [(r.speech_frames, r.text_tokens) for r in read]
        assert all(m.dtype == np.float32 and not m.flags.writeable for pair in frames for m in pair)
        before = [(s.copy(), t.copy()) for s, t in frames]

        wide = self._artifacts(self._as(read, lambda i: np.float64), tmp_path)
        assert self._artifacts(read, tmp_path) == wide
        mixed = self._as(read, lambda i: np.float32 if i % 2 else np.float64)
        assert self._artifacts(mixed, tmp_path) == wide
        for (s, t), (s0, t0) in zip(frames, before):
            assert np.array_equal(s, s0) and np.array_equal(t, t0)


class TestTrainingDynamics:
    def test_loss_non_increasing_after_warmup_on_separable_data(self, tiny_records):
        cfg = _quick_cfg(epochs=6, seed=3)
        ckpt = train_stage1(cfg, tiny_records)
        losses = [e["train_loss"] for e in ckpt.metadata["history"]]
        for a, b in zip(losses[2:], losses[3:]):
            assert b <= a + 1e-9


class TestTrainingFailures:
    def test_numeric_failure_names_stage_epoch_batch_and_op(self, tiny_records):
        # the first update sends the weights to ~1e300; the next forward overflows
        with pytest.raises(TrainingError) as info:
            train_stage1(_quick_cfg(learning_rate=1e300, epochs=2), tiny_records)
        msg = str(info.value)
        assert "stage-1 speech training failed at epoch 0, batch 1: " in msg
        assert "overflow encountered in matmul" in msg
        assert isinstance(info.value.__cause__, FloatingPointError)

    def test_bad_input_is_rejected_before_the_first_epoch(self, tiny_records, tmp_path):
        bad = list(tiny_records)
        frames = bad[-1].speech_frames.copy()
        frames[0, 0] = np.nan
        bad[-1] = dataclasses.replace(bad[-1], speech_frames=frames)
        log = tmp_path / "log.jsonl"
        with pytest.raises(ValueError, match="non-finite speech features"):
            train_stage1(_quick_cfg(), bad, log_path=log)
        assert not log.exists()


class TestCheckInputs:
    """``_check_inputs`` checks groups of records first and, when a group
    fails, the records one at a time, so it names the same first bad record,
    with the same message, as a per-record loop.  At 8 x 12 float64 frames a
    record is 768 bytes: about 170 fit in a 128 KiB group."""

    ENC = {"hidden_dim": 4, "out_dim": 4}
    SPEECH = {"stage": 1, "modality": "speech", "encoder": {"frame_dim": 12, **ENC}}
    DUAL = {"stage": 2, "speech_encoder": {"frame_dim": 12, **ENC},
            "text_encoder": {"frame_dim": 6, **ENC}}

    @staticmethod
    def _records(n=600):
        rng = np.random.default_rng(5)
        return [
            UtteranceRecord(id=f"r{i:03d}", split="train", emotion="A",
                            speech_frames=rng.normal(size=(8, 12)),
                            text_tokens=rng.normal(size=(8, 6)))
            for i in range(n)
        ]

    @staticmethod
    def _spoil(records, i, **fields):
        records[i] = dataclasses.replace(records[i], **fields)

    def test_good_records_pass_including_one_above_the_group_size(self):
        records = self._records()
        self._spoil(records, 300, speech_frames=np.ones((2000, 12)))  # 192,000 bytes
        _check_inputs(self.SPEECH, records)
        _check_inputs(self.DUAL, records)

    def test_nan_frame_names_the_first_bad_record(self):
        records = self._records()
        frames = records[450].speech_frames.copy()
        frames[3, 7] = np.nan
        self._spoil(records, 450, speech_frames=frames)
        self._spoil(records, 599, speech_frames=np.ones((8, 13)))
        with pytest.raises(ValueError) as info:
            _check_inputs(self.SPEECH, records)
        assert str(info.value) == "record 'r450': non-finite speech features"

    def test_nan_in_an_array_above_the_group_size(self):
        records = self._records()
        frames = np.ones((2000, 12))
        frames[1999, 0] = np.inf
        self._spoil(records, 300, speech_frames=frames)
        with pytest.raises(ValueError) as info:
            _check_inputs(self.SPEECH, records)
        assert str(info.value) == "record 'r300': non-finite speech features"

    def test_width_mismatch_in_the_last_record(self):
        records = self._records()
        self._spoil(records, 599, speech_frames=np.ones((8, 13)))
        with pytest.raises(ValueError) as info:
            _check_inputs(self.SPEECH, records)
        assert str(info.value) == "record 'r599': expected T x 12 speech features, got (8, 13)"

    def test_dual_modality_record_missing_text(self):
        records = self._records()
        self._spoil(records, 450, text_tokens=None)
        self._spoil(records, 500, speech_frames=np.full((8, 12), np.nan))
        with pytest.raises(ValueError) as info:
            _check_inputs(self.DUAL, records)
        assert str(info.value) == "record 'r450': dual-modality model needs both feature sets"

    def test_first_bad_record_across_modalities(self):
        records = self._records()
        self._spoil(records, 400, speech_frames=np.full((8, 12), np.nan))
        self._spoil(records, 300, text_tokens=np.full((8, 6), np.nan))
        with pytest.raises(ValueError) as info:
            _check_inputs(self.DUAL, records)
        assert str(info.value) == "record 'r300': non-finite text features"

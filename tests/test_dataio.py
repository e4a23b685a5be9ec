import hashlib
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serlab import dataio
from serlab.dataio import (
    FormatError,
    LabelRow,
    SynthConfig,
    UtteranceRecord,
    gen_synthetic,
    read_checkpoint,
    read_embeddings,
    read_labels,
    write_checkpoint,
    write_dataset,
    write_embeddings,
    write_labels,
)


class TestEmbeddingsFormat:
    def test_empty_file_round_trip(self, tmp_path):
        path = tmp_path / "empty.femb"
        write_embeddings(path, [], dim=7)
        assert read_embeddings(path) == []

    def test_single_record_bit_exact(self, tmp_path):
        path = tmp_path / "one.femb"
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(5, 3)).astype(np.float32).astype(np.float64)
        write_embeddings(path, [("utt-1", mat)])
        (rid, back), = read_embeddings(path)
        assert rid == "utt-1"
        assert np.array_equal(back, mat)

    def test_corrupted_magic_reports_offset_zero(self, tmp_path):
        path = tmp_path / "bad.femb"
        write_embeddings(path, [("a", np.zeros((1, 2)))])
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="offset 0"):
            read_embeddings(path)

    def test_truncation_reports_offset(self, tmp_path):
        path = tmp_path / "trunc.femb"
        write_embeddings(path, [("a", np.ones((3, 2)))])
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(FormatError, match="byte offset"):
            read_embeddings(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "trail.femb"
        write_embeddings(path, [("a", np.ones((1, 2)))])
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_embeddings(path)

    def test_invalid_utf8_id_cites_the_id_offset(self, tmp_path):
        path = tmp_path / "utf8.femb"
        write_embeddings(path, [("a", np.ones((1, 2))), ("b", np.ones((1, 2)))])
        data = bytearray(path.read_bytes())
        second = 20 + 2 + 1 + 4 + 8  # header, then record "a": id length, id, frame count, data
        data[second + 2] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=rf"record id is not valid UTF-8 \(byte offset {second + 2}\)"):
            read_embeddings(path)

    def test_zero_feature_dim_rejected_at_its_field(self, tmp_path):
        path = tmp_path / "dim0.femb"
        path.write_bytes(struct.pack("<4sIIQ", b"FEMB", 1, 0, 1) + struct.pack("<H", 1) + b"a"
                         + struct.pack("<I", 3))
        with pytest.raises(FormatError, match=r"feature dim 0 \(byte offset 8\)"):
            read_embeddings(path)

    def test_zero_frame_record_rejected_at_its_count(self, tmp_path):
        path = tmp_path / "frames0.femb"
        path.write_bytes(struct.pack("<4sIIQ", b"FEMB", 1, 2, 1) + struct.pack("<H", 1) + b"a"
                         + struct.pack("<I", 0))
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: record 'a': frame count 0 "
                                              r"\(byte offset 23\)$"):
            read_embeddings(path)

    def test_repeated_id_cites_the_repeat(self, tmp_path):
        path = tmp_path / "dup.femb"
        write_embeddings(path, [("a", np.ones((1, 2))), ("b", np.ones((2, 2))), ("a", np.ones((1, 2)))])
        third = 20 + (2 + 1 + 4 + 8) + (2 + 1 + 4 + 16)
        with pytest.raises(FormatError, match=rf"duplicate record id 'a' \(byte offset {third}\)"):
            read_embeddings(path)

    def test_dim_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="expected T x 2"):
            write_embeddings(tmp_path / "x.femb", [("a", np.ones((1, 2))), ("b", np.ones((1, 3)))])

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "keep.femb"
        write_embeddings(path, [("a", np.ones((2, 4)))])
        old = path.read_bytes()
        items = [("a", np.ones((1, 4))), ("b", np.ones((2, 4))), ("c", np.ones((1, 5)))]
        with pytest.raises(ValueError, match="expected T x 4"):
            write_embeddings(path, items)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["keep.femb"]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_round_trip_property(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        path = tmp_path_factory.mktemp("femb") / "p.femb"
        dim = int(rng.integers(1, 9))
        items = []
        for i in range(int(rng.integers(1, 6))):
            t = int(rng.integers(1, 7))
            mat = rng.normal(size=(t, dim)).astype(np.float32).astype(np.float64)
            items.append((f"u{i}", mat))
        write_embeddings(path, items)
        back = read_embeddings(path)
        assert [rid for rid, _ in back] == [rid for rid, _ in items]
        for (_, a), (_, b) in zip(items, back):
            assert np.array_equal(a, b)


class TestLabelsCsv:
    def _write(self, tmp_path, lines):
        path = tmp_path / "labels.csv"
        path.write_text("id,split,emotion,arousal,valence,dominance\n" + "\n".join(lines) + "\n")
        return path

    def test_categorical_only_row(self, tmp_path):
        rows = read_labels(self._write(tmp_path, ["u1,train,A,,,"]))
        assert rows[0].emotion == "A" and rows[0].attributes is None

    def test_attributes_only_row(self, tmp_path):
        rows = read_labels(self._write(tmp_path, ["u2,dev,,2.0,3.5,4.0"]))
        assert rows[0].emotion is None
        assert rows[0].attributes == (2.0, 3.5, 4.0)

    def test_out_of_range_attribute_cites_range_and_line(self, tmp_path):
        path = self._write(tmp_path, ["u1,train,A,,,", "u2,dev,,2.0,7.5,4.0"])
        with pytest.raises(ValueError, match=r"line 3.*valence out of range \[1, 7\]"):
            read_labels(path)

    def test_unknown_emotion_code_with_line(self, tmp_path):
        path = self._write(tmp_path, ["u1,train,Z,,,"])
        with pytest.raises(ValueError, match="line 2.*unknown emotion code"):
            read_labels(path)

    def test_duplicate_id_with_line(self, tmp_path):
        path = self._write(tmp_path, ["u1,train,A,,,", "u1,dev,C,,,"])
        with pytest.raises(ValueError, match="line 3.*duplicate id"):
            read_labels(path)

    def test_partial_triple_rejected(self, tmp_path):
        path = self._write(tmp_path, ["u1,train,,2.0,,4.0"])
        with pytest.raises(ValueError, match="partial attribute"):
            read_labels(path)

    def test_row_with_nothing_rejected(self, tmp_path):
        path = self._write(tmp_path, ["u1,train,,,,"])
        with pytest.raises(ValueError, match="neither emotion nor attributes"):
            read_labels(path)

    def test_unknown_split_rejected(self, tmp_path):
        path = self._write(tmp_path, ["u1,test9,A,,,"])
        with pytest.raises(ValueError, match="unknown split"):
            read_labels(path)

    @pytest.mark.parametrize("row, error", [
        ("u2,test9,A,,,", "unknown split 'test9'"),
        ("u2,train,Z,,,", "unknown emotion code 'Z'"),
        ("u2,train,A,2.0,,4.0", "partial attribute triple"),
        ("u2,train,A,2.0,x,4.0", "non-numeric attribute"),
        ("u2,train,A,0.5,3.0,4.0", "attribute arousal out of range [1, 7]: 0.5"),
        ("u2,train,A,7.5,3.0,4.0", "attribute arousal out of range [1, 7]: 7.5"),
        ("u2,train,A,2.0,0.5,4.0", "attribute valence out of range [1, 7]: 0.5"),
        ("u2,train,A,2.0,7.5,4.0", "attribute valence out of range [1, 7]: 7.5"),
        ("u2,train,A,2.0,3.0,0.5", "attribute dominance out of range [1, 7]: 0.5"),
        ("u2,train,A,2.0,3.0,7.5", "attribute dominance out of range [1, 7]: 7.5"),
        ("u2,train,,,,", "neither emotion nor attributes present"),
    ])
    def test_rejection_message_is_exact(self, tmp_path, row, error):
        path = self._write(tmp_path, ["u1,train,A,2.0,3.0,4.0", row])
        with pytest.raises(ValueError) as info:
            read_labels(path)
        assert str(info.value) == f"{path}: line 3: {error}"

    def test_invalid_utf8_names_path_line_and_byte(self, tmp_path):
        path = self._write(tmp_path, ["u1,train,A,,,", "u2,dev,A,,,"])
        raw = path.read_bytes()
        at = raw.index(b"dev")
        path.write_bytes(raw[:at] + b"\xc3(" + raw[at + 2:])
        with pytest.raises(ValueError) as info:
            read_labels(path)
        assert str(info.value) == (f"{path}: line 3: byte 0xc3 at offset {at} is not valid "
                                   f"UTF-8 (invalid continuation byte)")

    def test_write_read_round_trip(self, tmp_path):
        rows = [
            LabelRow("u1", "train", "A", None),
            LabelRow("u2", "dev", None, (2.0, 3.25, 4.125)),
            LabelRow("u3", "test1", "H", (1.0, 7.0, 4.0)),
        ]
        path = tmp_path / "labels.csv"
        write_labels(path, rows)
        assert read_labels(path) == rows


# Reads a file in a child process whose address space is capped at 256 MB
# above what the interpreter already maps, and prints how the read failed.
CAPPED_READ = """
import resource, sys
from serlab import dataio
with open("/proc/self/statm") as f:
    cap = int(f.read().split()[0]) * resource.getpagesize() + (256 << 20)
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
try:
    getattr(dataio, sys.argv[1])(sys.argv[2])
    print("read")
except dataio.FormatError as err:
    print("FormatError", err.offset)
except MemoryError:
    print("MemoryError")
"""


def _read_capped(reader: str, path) -> str:
    src = str(Path(dataio.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", CAPPED_READ, reader, str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
class TestLengthFieldsCheckedAgainstFileSize:
    def test_huge_frame_count(self, tmp_path):
        path = tmp_path / "huge.femb"
        header = struct.pack("<4sIIQ", b"FEMB", 1, 4, 1)
        path.write_bytes(header + struct.pack("<H", 1) + b"a" + struct.pack("<I", 0x7FFFFFFF))
        # the frame count sits after the 20-byte header, id length and id
        assert _read_capped("read_embeddings", path) == "FormatError 23"

    def test_id_length_past_end(self, tmp_path):
        path = tmp_path / "id.femb"
        path.write_bytes(struct.pack("<4sIIQ", b"FEMB", 1, 4, 1) + struct.pack("<H", 0xFFFF) + b"a")
        with pytest.raises(FormatError, match="byte offset 20"):
            read_embeddings(path)

    @staticmethod
    def _fckp(meta_len=None, name_len=None, rank=1, dims=(1,)) -> bytes:
        meta = b"{}"
        out = struct.pack("<4sII", b"FCKP", 1, len(meta) if meta_len is None else meta_len)
        out += meta + struct.pack("<I", 1)
        out += struct.pack("<H", 1 if name_len is None else name_len) + b"t"
        return out + struct.pack("<I", rank) + struct.pack(f"<{len(dims)}I", *dims)

    @pytest.mark.parametrize("fields, offset", [
        (dict(meta_len=0xFFFFFFFF), 8),          # metadata length
        (dict(rank=0xFFFFFFFF, dims=()), 21),    # rank: 4 bytes per dim
        (dict(rank=2, dims=(65536, 65536)), 25),  # shape product: 32 GB of float64
    ])
    def test_huge_checkpoint_lengths(self, tmp_path, fields, offset):
        path = tmp_path / "huge.fckp"
        path.write_bytes(self._fckp(**fields))
        assert _read_capped("read_checkpoint", path) == f"FormatError {offset}"

    def test_tensor_name_length_past_end(self, tmp_path):
        path = tmp_path / "name.fckp"
        path.write_bytes(self._fckp(name_len=0xFFFF))
        with pytest.raises(FormatError, match="byte offset 18"):
            read_checkpoint(path)


class TestCheckpointFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        tensors = {
            "enc.W": rng.normal(size=(4, 3)),
            "enc.b": rng.normal(size=3),
            "head.k": rng.normal(size=(2, 2, 2)),
        }
        meta = {"stage": 1, "seed": 7, "note": "x"}
        path = tmp_path / "c.fckp"
        write_checkpoint(path, tensors, meta)
        back, meta_back = read_checkpoint(path)
        assert meta_back == meta
        assert list(back) == list(tensors)
        for name in tensors:
            assert np.array_equal(back[name], tensors[name])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.fckp"
        write_checkpoint(path, {"a": np.ones(2)}, {})
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="offset 0"):
            read_checkpoint(path)

    def test_invalid_utf8_tensor_name_cites_its_offset(self, tmp_path):
        path = tmp_path / "c.fckp"
        write_checkpoint(path, {"a": np.ones(2)}, {})
        raw = bytearray(path.read_bytes())
        name_at = 8 + 4 + 2 + 4 + 2  # header, metadata length, "{}", tensor count, name length
        raw[name_at] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=rf"tensor name is not valid UTF-8 \(byte offset {name_at}\)"):
            read_checkpoint(path)

    @pytest.mark.parametrize("meta,reason,at", [
        (b'\xff"stage": 1}', "not valid UTF-8", 12),
        (b'{"\xe9tage": 1}', "not valid UTF-8", 14),
        (b'x"stage": 1}', "not JSON: Expecting value", 12),
        (b'{"\xc3\xa9age": ,}', "not JSON: Expecting value", 22),  # char 21, after a 2-byte char
    ])
    def test_bad_metadata_names_path_and_offset(self, tmp_path, meta, reason, at):
        path = tmp_path / "c.fckp"
        write_checkpoint(path, {"a": np.ones(2)}, {"stage": 1})
        raw = path.read_bytes()
        assert raw[12:24] == b'{"stage": 1}'
        path.write_bytes(raw[:12] + meta + raw[24:])
        with pytest.raises(FormatError) as info:
            read_checkpoint(path)
        assert str(info.value) == f"{path}: metadata is {reason} (byte offset {at})"

    def test_truncation(self, tmp_path):
        path = tmp_path / "c.fckp"
        write_checkpoint(path, {"a": np.ones((5, 5))}, {"stage": 2})
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(FormatError, match="byte offset"):
            read_checkpoint(path)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_round_trip_property(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        path = tmp_path_factory.mktemp("fckp") / "c.fckp"
        tensors = {}
        for i in range(int(rng.integers(1, 5))):
            shape = tuple(int(d) for d in rng.integers(1, 5, size=int(rng.integers(1, 4))))
            tensors[f"t{i}"] = rng.normal(size=shape)
        write_checkpoint(path, tensors, {"seed": seed})
        back, meta = read_checkpoint(path)
        assert meta == {"seed": seed}
        for name in tensors:
            assert np.array_equal(back[name], tensors[name])


class TestSynthetic:
    def test_determinism_bytes(self, tmp_path):
        cfg = SynthConfig(class_counts=(5,) * 8, seed=3)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_dataset(d1, gen_synthetic(cfg))
        write_dataset(d2, gen_synthetic(cfg))
        for name in ("speech.femb", "text.femb", "labels.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_different_seed_differs(self):
        a = gen_synthetic(SynthConfig(class_counts=(4,) * 8, seed=1))
        b = gen_synthetic(SynthConfig(class_counts=(4,) * 8, seed=2))
        assert not np.array_equal(a[0].speech_frames, b[0].speech_frames)

    def test_labels_within_contracts(self):
        records = gen_synthetic(SynthConfig(class_counts=(10,) * 8, seed=5))
        for r in records:
            assert r.emotion in dataio.EMOTION_CODES
            assert all(1.0 <= v <= 7.0 for v in r.attributes)
            assert r.speech_frames.shape[0] >= 1
            assert r.text_tokens.shape[0] >= 1

    def test_stratified_splits(self):
        records = gen_synthetic(SynthConfig(class_counts=(20,) * 8, seed=6))
        for split in ("train", "dev", "test1"):
            present = {r.emotion for r in records if r.split == split}
            assert present == set(dataio.EMOTION_CODES)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="2 non-empty"):
            SynthConfig(class_counts=(8, 0, 0, 0, 0, 0, 0, 0))
        with pytest.raises(ValueError, match="noise_sigma"):
            SynthConfig(noise_sigma=0.0)
        with pytest.raises(ValueError, match="anchors"):
            SynthConfig(anchors=np.full((8, 3), 9.0))

    def test_dataset_round_trip(self, tmp_path):
        records = gen_synthetic(SynthConfig(class_counts=(3,) * 8, seed=7))
        write_dataset(tmp_path / "ds", records)
        back = dataio.load_dataset(tmp_path / "ds", ("speech", "text"))
        assert [r.id for r in back] == [r.id for r in records]
        for a, b in zip(records, back):
            assert a.split == b.split and a.emotion == b.emotion
            # embeddings stored as float32: round-trip through storage precision
            assert np.array_equal(b.speech_frames, a.speech_frames.astype(np.float32))


class TestSeparabilityEndpoints:
    """The generator's separation knob controls attainable accuracy."""

    def _train_dev_accuracy(self, separation, seed):
        from serlab.trainer import TrainConfig, predict, train_stage1
        from serlab.metrics import classification_metrics

        cfg = SynthConfig(
            class_counts=(40,) * 8,
            separation=separation,
            noise_sigma=0.3,
            split_fractions=(0.7, 0.3, 0.0),
            seed=seed,
        )
        records = gen_synthetic(cfg)
        tc = TrainConfig(
            stage=1, task="categorical", modality="speech", loss="focal",
            learning_rate=0.01, epochs=8, seed=seed,
        )
        ckpt = train_stage1(tc, records)
        dev = [r for r in records if r.split == "dev"]
        preds = predict(ckpt, dev)
        rep = classification_metrics([preds.labels[r.id] for r in dev], [r.emotion for r in dev])
        return rep

    def test_uninformative_features_give_chance_accuracy(self):
        rep = self._train_dev_accuracy(separation=0.0, seed=21)
        assert abs(rep.accuracy - 0.125) <= 0.05

    def test_separable_features_give_high_f1(self):
        rep = self._train_dev_accuracy(separation=1.5, seed=22)
        assert rep.f1_micro >= 0.95


class TestUtteranceRecord:
    def test_needs_some_label(self):
        with pytest.raises(ValueError, match="needs an emotion or attributes"):
            UtteranceRecord(id="x", split="train")

    def test_split_validated(self):
        with pytest.raises(ValueError, match="unknown split"):
            UtteranceRecord(id="x", split="nope", emotion="A")

    def test_assemble_requires_matching_ids(self):
        labels = [LabelRow("u1", "train", "A", None)]
        with pytest.raises(ValueError, match="missing speech"):
            dataio.assemble_records(labels, speech=[("other", np.ones((1, 2)))])


class TestPredictionsCsv:
    def test_round_trip(self, tmp_path):
        preds = dataio.PredictionSet()
        preds.add_label("u1", "A")
        preds.add_attributes("u2", (1.5, 3.0, 6.5))
        path = tmp_path / "p.csv"
        dataio.write_predictions(path, preds)
        back = dataio.read_predictions(path)
        assert back.labels == {"u1": "A"}
        assert back.attributes == {"u2": (1.5, 3.0, 6.5)}
        assert back.ids == ["u1", "u2"]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,foo\n")
        with pytest.raises(ValueError, match="header"):
            dataio.read_predictions(path)

    @pytest.mark.parametrize("row, error", [
        ("u1,,4.0,x,4.0", "line 3: non-numeric attribute"),
        ("u0,H,,,", "line 3: duplicate id 'u0'"),
        ('"u\n1",A,,,\nu0,H,,,', "line 5: duplicate id 'u0'"),  # a quoted id spans lines 3-4
    ])
    def test_bad_row_names_path_and_line(self, tmp_path, row, error):
        path = tmp_path / "p.csv"
        path.write_text(f"id,emotion,arousal,valence,dominance\nu0,A,,,\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {error}")):
            dataio.read_predictions(path)


class TestRecordedReads:
    def test_readers_record_the_hash_of_the_bytes_parsed(self, tmp_path):
        paths = write_dataset(tmp_path, gen_synthetic(SynthConfig(class_counts=(3,) * 8)))
        ckpt = tmp_path / "c.fckp"
        write_checkpoint(ckpt, {"a": np.ones(2)}, {"stage": 1})
        with dataio.recording_reads():
            dataio.load_dataset(tmp_path, ("speech", "text"))
            read_checkpoint(ckpt)
            record = dataio.recorded_reads()
        assert record == {
            str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in [*paths.values(), ckpt]
        }
        assert dataio.recorded_reads() == {}

    def test_failed_parse_records_nothing(self, tmp_path):
        path = tmp_path / "e.femb"
        write_embeddings(path, [("a", np.ones((1, 2)))])
        path.write_bytes(path.read_bytes() + b"\0")
        with dataio.recording_reads():
            with pytest.raises(FormatError, match="trailing bytes"):
                read_embeddings(path)
            assert dataio.recorded_reads() == {}

    def test_inner_block_keeps_its_own_record(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("seed = 1\n")
        with dataio.recording_reads():
            with dataio.recording_reads():
                dataio.read_text(path)
                assert list(dataio.recorded_reads()) == [str(path)]
            assert dataio.recorded_reads() == {}

import concurrent.futures
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from serlab import dataio, model, trainer
from serlab.cli import cli_dispatch, load_config_file
from serlab.dataio import LabelRow, PredictionSet, write_labels, write_predictions
from serlab.trainer import Checkpoint

from helpers import MockChatServer


@pytest.fixture(autouse=True)
def no_temporary_files_left(tmp_path):
    """Fails a test that leaves an ``atomic_write`` temporary file behind."""
    yield
    left = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob(".*.tmp"))
    assert not left, f"temporary files left behind: {left}"


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    code = cli_dispatch(
        ["gen-synth", "--class-counts", ",".join(["30"] * 8), "--seed", "17",
         "--separation", "1.5", "--out", str(out)]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def stage1_ckpts(dataset, tmp_path_factory):
    d = tmp_path_factory.mktemp("ckpts")
    speech, text = d / "s.fckp", d / "t.fckp"
    for modality, path, seed in (("speech", speech, "5"), ("text", text, "6")):
        code = cli_dispatch(
            ["train-stage1", "--data", str(dataset), "--modality", modality,
             "--task", "categorical", "--loss", "focal", "--lr", "0.01",
             "--epochs", "3", "--seed", seed, "--out", str(path)]
        )
        assert code == 0
    return speech, text


@pytest.fixture(scope="module")
def stage2_ckpts(dataset, stage1_ckpts, tmp_path_factory):
    """A one-epoch stage-2 checkpoint of each fusion kind, by kind."""
    d = tmp_path_factory.mktemp("stage2")
    speech, text = stage1_ckpts
    paths = {fusion: d / f"{fusion}.fckp" for fusion in model.FUSION_KINDS}
    for fusion, path in paths.items():
        assert cli_dispatch(
            ["train-stage2", "--data", str(dataset), "--task", "categorical", "--epochs", "1",
             "--seed", "7", "--speech-ckpt", str(speech), "--text-ckpt", str(text),
             "--fusion", fusion, "--out", str(path)]
        ) == 0
    return paths


class TestGenSynth:
    def test_outputs_and_manifest(self, dataset):
        for name in ("speech.femb", "text.femb", "labels.csv", "manifest.json"):
            assert (dataset / name).exists()
        manifest = json.loads((dataset / "manifest.json").read_text())
        assert manifest["command"] == "gen-synth"
        assert len(manifest["outputs"]) == 3

    def test_bad_counts_exit_1(self, tmp_path):
        assert cli_dispatch(["gen-synth", "--class-counts", "1,2", "--out", str(tmp_path / "x")]) == 1

    def test_anchor_override(self, tmp_path):
        anchors = ";".join(["2.0,2.0,2.0"] * 4 + ["6.0,6.0,6.0"] * 4)
        out = tmp_path / "anchored"
        code = cli_dispatch(
            ["gen-synth", "--class-counts", ",".join(["6"] * 8), "--seed", "2",
             "--noise-sigma", "0.1", "--anchors", anchors, "--out", str(out)]
        )
        assert code == 0
        from serlab.dataio import read_labels

        rows = read_labels(out / "labels.csv")
        lows = [r for r in rows if r.emotion in "ACDF"]
        highs = [r for r in rows if r.emotion in "HNSU"]
        assert max(v for r in lows for v in r.attributes) < 4.0
        assert min(v for r in highs for v in r.attributes) > 4.0

    def test_bad_anchor_shape_exit_1(self, tmp_path):
        assert cli_dispatch(
            ["gen-synth", "--anchors", "1,2,3;4,5,6", "--out", str(tmp_path / "x")]
        ) == 1


def _set_entry(tensors, name, index, value):
    arr = tensors[name].copy()
    arr[index] = value
    tensors[name] = arr


def _with_att_k(tensors):
    """The tensors as checkpoints held them before the attention score
    offset ``att.k`` was deleted: a (1,) tensor after ``speech.att.v``."""
    items = list(tensors.items())
    tensors.clear()
    for name, arr in items:
        tensors[name] = arr
        if name == "speech.att.v":
            tensors["speech.att.k"] = np.zeros(1)


# the checkpoint each defect edits ("speech" is the stage-1 one), its
# (tensors, metadata) -> None edit, and the error it gives
CHECKPOINT_DEFECTS = {
    "no stage": ("speech", lambda t, m: m.pop("stage"), "metadata has no 'stage'"),
    "no batch_size": ("speech", lambda t, m: m["config"].pop("batch_size"),
                      "metadata has no 'config.batch_size'"),
    "batch_size 0": ("speech", lambda t, m: m["config"].update(batch_size=0),
                     "metadata 'config.batch_size' must be an integer >= 1, got 0"),
    "batch_size '8'": ("speech", lambda t, m: m["config"].update(batch_size="8"),
                       "metadata 'config.batch_size' must be an integer >= 1, got '8'"),
    "head.fc1.b cut": ("speech", lambda t, m: t.update({"head.fc1.b": t["head.fc1.b"][:5]}),
                       "tensor 'head.fc1.b' has shape (5,), expected (16,)"),
    "speech.frame.W cut": ("speech",
                           lambda t, m: t.update({"speech.frame.W": t["speech.frame.W"][:, :3]}),
                           "tensor 'speech.frame.W' has shape (12, 3), expected (12, 16)"),
    "head.fc1.b nan": ("speech", lambda t, m: _set_entry(t, "head.fc1.b", 2, np.nan),
                       "tensor 'head.fc1.b' is not finite at flat index 2"),
    "speech.frame.W -inf": ("speech",
                            lambda t, m: _set_entry(t, "speech.frame.W", (1, 3), -np.inf),
                            "tensor 'speech.frame.W' is not finite at flat index 19"),
    "old speech.att.k": ("speech", lambda t, m: _with_att_k(t),
                         "tensor 'speech.att.k' is not part of the model its metadata describes"),
    "concat no fusion": ("concat", lambda t, m: m.pop("fusion"), "metadata has no 'fusion'"),
    "cross_attention no fusion": ("cross_attention", lambda t, m: m.pop("fusion"),
                                  "metadata has no 'fusion'"),
    "fusion 'gated'": ("cross_attention", lambda t, m: m.update(fusion="gated"),
                       "metadata 'fusion' must be one of ('concat', 'cross_attention'), "
                       "got 'gated'"),
    "attn_dim 0": ("cross_attention", lambda t, m: m.update(attn_dim=0),
                   "metadata 'attn_dim' must be an integer >= 1, got 0"),
    "concat no text_encoder.out_dim": ("concat", lambda t, m: m["text_encoder"].pop("out_dim"),
                                       "metadata has no 'text_encoder.out_dim'"),
    "cross_attention no text_encoder.out_dim": (
        "cross_attention", lambda t, m: m["text_encoder"].pop("out_dim"),
        "metadata has no 'text_encoder.out_dim'"),
    "fusion.q.W cut": ("cross_attention",
                       lambda t, m: t.update({"fusion.q.W": t["fusion.q.W"][:, :3]}),
                       "tensor 'fusion.q.W' has shape (16, 3), expected (16, 16)"),
}


class TestExitCodes:
    def test_unknown_flag_is_validation_error(self, tmp_path):
        assert cli_dispatch(["gen-synth", "--wat", "1", "--out", str(tmp_path / "x")]) == 1

    def test_unknown_command(self):
        assert cli_dispatch(["frobnicate"]) == 1

    def test_missing_file_is_validation_error(self, tmp_path):
        code = cli_dispatch(
            ["evaluate", "--pred", str(tmp_path / "nope.csv"),
             "--labels", str(tmp_path / "nope2.csv"), "--out", str(tmp_path / "r")]
        )
        assert code == 1

    def test_missing_seed_is_validation_error(self, dataset, tmp_path):
        code = cli_dispatch(
            ["train-stage1", "--data", str(dataset), "--modality", "speech",
             "--task", "categorical", "--out", str(tmp_path / "c.fckp")]
        )
        assert code == 1

    def test_replay_mismatch_is_runtime_failure(self, tmp_path):
        out = tmp_path / "ds"
        assert cli_dispatch(
            ["gen-synth", "--class-counts", ",".join(["4"] * 8), "--seed", "1",
             "--out", str(out)]
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["outputs"][str(out / "labels.csv")] = "0" * 64
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert cli_dispatch(["replay", "--manifest", str(out / "manifest.json")]) == 2

    def test_failed_replay_keeps_the_record_it_failed_against(self, tmp_path, capsys):
        # a record that does not reproduce, as on another BLAS kernel: the
        # output's bytes and its manifest hash agree, but the command gives
        # other bytes
        out = tmp_path / "ds"
        assert cli_dispatch(
            ["gen-synth", "--class-counts", ",".join(["4"] * 8), "--seed", "1",
             "--out", str(out)]
        ) == 0
        labels, manifest = out / "labels.csv", out / "manifest.json"
        labels.write_bytes(labels.read_bytes().replace(b",A,", b",C,", 1))
        doc = json.loads(manifest.read_text())
        doc["outputs"][str(labels)] = dataio.sha256_file(labels)
        manifest.write_text(json.dumps(doc))
        recorded = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert cli_dispatch(["replay", "--manifest", str(manifest)]) == 2
        assert str(labels) in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == recorded
        assert not list(tmp_path.rglob("*.tmp"))

    @staticmethod
    def _data_copy(dataset, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("speech.femb", "text.femb", "labels.csv"):
            (data / name).write_bytes((dataset / name).read_bytes())
        return data

    def _predicted_copy(self, dataset, ckpt, tmp_path):
        """A copy of ``dataset`` and a ``predict`` run on it: (data dir, predictions)."""
        data = self._data_copy(dataset, tmp_path)
        preds = tmp_path / "p.csv"
        assert cli_dispatch(
            ["predict", "--ckpt", str(ckpt), "--data", str(data), "--out", str(preds)]
        ) == 0
        return data, preds

    def test_replay_refuses_changed_inputs_and_keeps_outputs(self, dataset, stage1_ckpts, tmp_path,
                                                             capsys):
        data, preds = self._predicted_copy(dataset, stage1_ckpts[0], tmp_path)
        recorded = preds.read_bytes()
        labels = data / "labels.csv"
        labels.write_text(labels.read_text().replace(",A,", ",C,", 1))  # one relabelled row
        capsys.readouterr()
        assert cli_dispatch(["replay", "--manifest", str(preds) + ".manifest.json"]) == 2
        err = capsys.readouterr().err
        assert str(labels) in err
        assert str(data / "speech.femb") not in err
        assert preds.read_bytes() == recorded

    def test_replay_refuses_missing_input_and_runs_nothing(self, dataset, stage1_ckpts, tmp_path,
                                                          capsys):
        data, preds = self._predicted_copy(dataset, stage1_ckpts[0], tmp_path)
        (data / "speech.femb").unlink()
        preds.unlink()
        capsys.readouterr()
        assert cli_dispatch(["replay", "--manifest", str(preds) + ".manifest.json"]) == 2
        assert str(data / "speech.femb") in capsys.readouterr().err
        assert not preds.exists()

    def test_replay_refuses_changed_config_and_keeps_outputs(self, dataset, stage1_ckpts, tmp_path,
                                                             capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("split = test1\n")
        preds = tmp_path / "p.csv"
        assert cli_dispatch(
            ["predict", "--config", str(cfg), "--ckpt", str(stage1_ckpts[0]),
             "--data", str(dataset), "--out", str(preds)]
        ) == 0
        recorded = preds.read_bytes()
        cfg.write_text("split = dev\n")
        capsys.readouterr()
        assert cli_dispatch(["replay", "--manifest", str(preds) + ".manifest.json"]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err
        assert str(preds) not in err
        assert preds.read_bytes() == recorded

    def test_manifest_hashes_the_bytes_parsed(self, dataset, stage1_ckpts, tmp_path, monkeypatch):
        data = self._data_copy(dataset, tmp_path)
        labels = data / "labels.csv"
        parsed = labels.read_bytes()
        load = dataio.load_dataset

        def load_then_replace_labels(data_dir, modalities):
            records = load(data_dir, modalities)
            labels.write_bytes(parsed.replace(b",A,", b",C,", 1))
            return records

        monkeypatch.setattr(dataio, "load_dataset", load_then_replace_labels)
        preds = tmp_path / "p.csv"
        assert cli_dispatch(
            ["predict", "--ckpt", str(stage1_ckpts[0]), "--data", str(data), "--out", str(preds)]
        ) == 0
        inputs = json.loads(Path(str(preds) + ".manifest.json").read_text())["inputs"]
        assert inputs[str(labels)] == hashlib.sha256(parsed).hexdigest()
        assert sorted(inputs) == sorted([str(data / "speech.femb"), str(labels), str(stage1_ckpts[0])])

    def test_commands_parse_only_the_features_their_model_reads(self, dataset, stage1_ckpts,
                                                              tmp_path, capsys):
        data = self._data_copy(dataset, tmp_path)
        speech = data / "speech.femb"
        speech.write_bytes(speech.read_bytes() + b"\0")
        text_ckpt = tmp_path / "t.fckp"
        assert cli_dispatch(
            ["train-stage1", "--data", str(data), "--modality", "text", "--task", "categorical",
             "--epochs", "1", "--seed", "3", "--out", str(text_ckpt)]
        ) == 0
        inputs = json.loads(Path(str(text_ckpt) + ".manifest.json").read_text())["inputs"]
        assert sorted(inputs) == sorted([str(data / "labels.csv"), str(data / "text.femb")])
        capsys.readouterr()
        assert cli_dispatch(
            ["train-stage2", "--data", str(data), "--task", "categorical", "--epochs", "1",
             "--seed", "7", "--speech-ckpt", str(stage1_ckpts[0]), "--text-ckpt", str(text_ckpt),
             "--out", str(tmp_path / "s2.fckp")]
        ) == 1
        assert f"error: {speech}: trailing bytes after last record (byte offset" \
            in capsys.readouterr().err
        assert not (tmp_path / "s2.fckp").exists()

    def test_predict_names_the_missing_features_its_model_needs(self, dataset, stage1_ckpts,
                                                              tmp_path, capsys):
        data = self._data_copy(dataset, tmp_path)
        (data / "text.femb").unlink()
        preds = tmp_path / "p.csv"
        assert cli_dispatch(
            ["predict", "--ckpt", str(stage1_ckpts[0]), "--data", str(data), "--out", str(preds)]
        ) == 0
        capsys.readouterr()
        assert cli_dispatch(
            ["predict", "--ckpt", str(stage1_ckpts[1]), "--data", str(data), "--out", str(preds)]
        ) == 1
        assert str(data / "text.femb") in capsys.readouterr().err

    def test_record_missing_from_a_feature_file_names_that_file(self, dataset, stage1_ckpts,
                                                               tmp_path, capsys):
        data = self._data_copy(dataset, tmp_path)
        with open(data / "labels.csv", "a") as f:
            f.write("zz,test1,A,,,\n")
        capsys.readouterr()
        assert cli_dispatch(["predict", "--ckpt", str(stage1_ckpts[0]), "--data", str(data),
                             "--out", str(tmp_path / "p.csv")]) == 1
        assert f"error: {data / 'speech.femb'}: record 'zz': missing speech embeddings" \
            in capsys.readouterr().err

    def test_empty_split_names_the_labels_file(self, stage1_ckpts, tmp_path, capsys):
        data = tmp_path / "data"
        assert cli_dispatch(["gen-synth", "--class-counts", ",".join(["4"] * 8),
                             "--split-fractions", "0.75,0.25,0", "--out", str(data)]) == 0
        capsys.readouterr()
        assert cli_dispatch(["predict", "--ckpt", str(stage1_ckpts[0]), "--data", str(data),
                             "--split", "test1", "--out", str(tmp_path / "p.csv")]) == 1
        assert f"error: {data / 'labels.csv'}: no records in split 'test1'" \
            in capsys.readouterr().err

    def test_undecodable_labels_and_checkpoint_metadata_exit_1_naming_the_file(
            self, dataset, stage1_ckpts, tmp_path, capsys):
        data = self._data_copy(dataset, tmp_path)
        labels = data / "labels.csv"
        raw = labels.read_bytes()
        line3 = raw.index(b"\n", raw.index(b"\n") + 1) + 1
        labels.write_bytes(raw[:line3 + 1] + b"\xff" + raw[line3 + 2:])
        preds = tmp_path / "p.csv"
        argv = ["predict", "--ckpt", str(stage1_ckpts[0]), "--data", str(data), "--out", str(preds)]
        capsys.readouterr()
        assert cli_dispatch(argv) == 1
        assert f"error: {labels}: line 3: byte 0xff at offset {line3 + 1} is not valid UTF-8" \
            in capsys.readouterr().err
        ckpt = tmp_path / "c.fckp"
        ckpt.write_bytes(stage1_ckpts[0].read_bytes())
        for byte, reason in ((0xFF, "not valid UTF-8"), (ord("x"), "not JSON: Expecting value")):
            meta = bytearray(ckpt.read_bytes())
            meta[12] = byte  # the first byte of the metadata
            ckpt.write_bytes(bytes(meta))
            assert cli_dispatch(["predict", "--ckpt", str(ckpt), "--data", str(dataset),
                                 "--out", str(preds)]) == 1
            assert f"error: {ckpt}: metadata is {reason} (byte offset 12)" in capsys.readouterr().err
        assert not preds.exists()

    def test_binary_format_errors_name_the_file(self, dataset, stage1_ckpts, tmp_path, capsys):
        data = self._data_copy(dataset, tmp_path)
        speech, ckpt, preds = data / "speech.femb", tmp_path / "c.fckp", tmp_path / "p.csv"
        speech.write_bytes(speech.read_bytes() + b"\0")
        ckpt.write_bytes(stage1_ckpts[0].read_bytes() + b"\0")
        argv = ["predict", "--data", str(data), "--out", str(preds), "--ckpt"]
        capsys.readouterr()
        assert cli_dispatch(argv + [str(stage1_ckpts[0])]) == 1
        assert f"error: {speech}: trailing bytes after last record (byte offset" \
            in capsys.readouterr().err
        assert cli_dispatch(argv + [str(ckpt)]) == 1
        assert f"error: {ckpt}: trailing bytes after last tensor (byte offset" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("defect", list(CHECKPOINT_DEFECTS))
    def test_malformed_checkpoint_exits_1_naming_the_key(self, dataset, stage1_ckpts,
                                                          stage2_ckpts, tmp_path, capsys, defect):
        kind, mutate, message = CHECKPOINT_DEFECTS[defect]
        tensors, meta = dataio.read_checkpoint({"speech": stage1_ckpts[0], **stage2_ckpts}[kind])
        mutate(tensors, meta)
        ckpt, preds = tmp_path / "c.fckp", tmp_path / "p.csv"
        dataio.write_checkpoint(ckpt, tensors, meta)
        capsys.readouterr()
        assert cli_dispatch(
            ["predict", "--ckpt", str(ckpt), "--data", str(dataset), "--out", str(preds)]
        ) == 1
        assert f"error: {ckpt}: {message}" in capsys.readouterr().err
        assert not preds.exists()

    def test_cross_attention_predict_never_loads_numpy_random(self, dataset, stage1_ckpts,
                                                              tmp_path):
        # a command that does not train draws nothing, and only `llm run`
        # posts; numpy.random alone adds about 2 MB to a process's resident
        # memory, and requests about 9 MB
        speech, text = stage1_ckpts
        ckpt = tmp_path / "xattn.fckp"
        assert cli_dispatch(
            ["train-stage2", "--data", str(dataset), "--task", "categorical", "--epochs", "1",
             "--seed", "7", "--speech-ckpt", str(speech), "--text-ckpt", str(text),
             "--fusion", "cross_attention", "--out", str(ckpt)]
        ) == 0
        src = str(Path(dataio.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        script = ("import sys\nfrom serlab.cli import cli_dispatch\n"
                  "code = cli_dispatch(sys.argv[1:])\n"
                  "print(code, 'numpy.random' in sys.modules, 'requests' in sys.modules)\n")

        def loaded(*argv):
            done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            return done.stdout.splitlines()[-1], done.stdout + done.stderr

        last, out = loaded("predict", "--ckpt", str(ckpt), "--data", str(dataset),
                           "--out", str(tmp_path / "p.csv"))
        assert last == "0 False False", out
        last, out = loaded("train-stage1", "--data", str(dataset), "--modality", "speech",
                           "--task", "categorical", "--epochs", "1", "--seed", "8",
                           "--out", str(tmp_path / "s.fckp"))
        assert last == "0 True False", out

    @pytest.mark.parametrize("content,message", [
        (b"\xff{}", "line 1: byte 0xff at offset 0 is not valid UTF-8"),
        (b'{"argv": ["predict', "line 1: not JSON: Unterminated string"),
        (b"{}", "manifest needs 'argv' as a JSON array"),
        (b'{"argv": [], "inputs": {}}', "manifest needs 'outputs' as a JSON object"),
    ], ids=["invalid UTF-8", "truncated", "no keys", "no outputs"])
    def test_malformed_replay_manifest_exits_1_naming_the_file(self, tmp_path, capsys, content,
                                                               message):
        manifest = tmp_path / "m.json"
        manifest.write_bytes(content)
        capsys.readouterr()
        assert cli_dispatch(["replay", "--manifest", str(manifest)]) == 1
        assert f"error: {manifest}: {message}" in capsys.readouterr().err

    def test_training_failure_is_runtime_failure(self, dataset, tmp_path, capsys):
        code = cli_dispatch(
            ["train-stage1", "--data", str(dataset), "--modality", "text", "--task", "categorical",
             "--lr", "1e300", "--epochs", "2", "--seed", "3", "--out", str(tmp_path / "t.fckp")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "stage-1 text training failed at epoch 0, batch 1: " in err
        assert not (tmp_path / "t.fckp").exists()

    def test_failed_run_keeps_the_previous_log_and_prints_its_epochs(self, dataset, tmp_path,
                                                                    capsys, monkeypatch):
        out, log = tmp_path / "s.fckp", tmp_path / "s.jsonl"
        argv = ["train-stage1", "--data", str(dataset), "--modality", "text",
                "--task", "categorical", "--lr", "0.01", "--epochs", "2", "--seed", "3",
                "--out", str(out), "--log", str(log)]
        assert cli_dispatch(argv) == 0
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        first_epoch = log.read_text().splitlines()[0]
        real_eval, evals = trainer._eval_dev, []

        def eval_failing_at_epoch_1(*args):
            evals.append(args)
            if len(evals) == 2:
                raise FloatingPointError("overflow encountered in matmul")
            return real_eval(*args)

        monkeypatch.setattr(trainer, "_eval_dev", eval_failing_at_epoch_1)
        capsys.readouterr()
        assert cli_dispatch(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            first_epoch,
            "failure: stage-1 text training failed at epoch 1, dev evaluation: "
            "overflow encountered in matmul",
        ]
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("case, message", [
        ("batch size 1", "ccc_loss needs batch_size >= 2, got 1"),
        ("1 train record", "ccc_loss needs at least 2 train records, got 1"),
        ("1 dev record", "attribute task needs at least 2 dev records, got 1"),
    ])
    def test_ccc_training_with_fewer_than_two_samples_fails_up_front(
            self, dataset, tmp_path, capsys, case, message):
        data, batch_size = dataset, "8"
        if case == "batch size 1":
            batch_size = "1"
        else:
            split = case.split()[1]
            records = dataio.load_dataset(dataset, ("speech", "text"))
            kept = [r for r in records if r.split != split]
            data = tmp_path / "data"
            dataio.write_dataset(data, kept + [next(r for r in records if r.split == split)])
        out = tmp_path / "s.fckp"
        capsys.readouterr()
        assert cli_dispatch(
            ["train-stage1", "--data", str(data), "--modality", "speech", "--task", "attributes",
             "--batch-size", batch_size, "--lr", "0.01", "--epochs", "1", "--seed", "3",
             "--out", str(out)]
        ) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, validations", [
        ("predict", 1), ("train-stage2", 3), ("sweep table1", 8),
    ])
    def test_each_checkpoint_is_validated_once(self, dataset, stage1_ckpts, tmp_path,
                                               monkeypatch, command, validations):
        # predict loads one; train-stage2 loads two and builds its own; the
        # sweep loads two and builds one per task for each of its 3 rows
        speech, text = stage1_ckpts
        out = str(tmp_path / "out")
        argv = {
            "predict": ["predict", "--ckpt", str(speech), "--data", str(dataset), "--out", out],
            "train-stage2": ["train-stage2", "--data", str(dataset), "--task", "categorical",
                             "--epochs", "1", "--seed", "7", "--speech-ckpt", str(speech),
                             "--text-ckpt", str(text), "--out", out],
            "sweep table1": ["sweep", "table1", "--data", str(dataset), "--speech-ckpt",
                             str(speech), "--text-ckpt", str(text), "--seed", "3",
                             "--epochs", "1", "--split", "test1", "--out", out],
        }[command]
        real_check, checked = Checkpoint.__post_init__, []

        def counting_check(ckpt):
            checked.append(ckpt.metadata)
            return real_check(ckpt)

        monkeypatch.setattr(Checkpoint, "__post_init__", counting_check)
        assert cli_dispatch(argv) == 0
        assert len(checked) == validations

    def test_focal_gamma_below_one_trains_through_certain_predictions(self, tmp_path, capsys):
        # well-separated classes and a large rate drive some p_t to round to 1,
        # where (1 - p_t)^(gamma - 1) is infinite for 0 < gamma < 1
        data = tmp_path / "data"
        assert cli_dispatch(
            ["gen-synth", "--class-counts", ",".join(["40"] * 8), "--separation", "3",
             "--noise-sigma", "0.1", "--split-fractions", "0.7,0.3,0.0", "--seed", "3",
             "--out", str(data)]
        ) == 0
        code = cli_dispatch(
            ["train-stage1", "--data", str(data), "--modality", "speech", "--task", "categorical",
             "--loss", "focal", "--focal-gamma", "0.5", "--lr", "0.3", "--epochs", "1",
             "--seed", "1", "--out", str(tmp_path / "s.fckp")]
        )
        assert code == 0, capsys.readouterr().err

    @pytest.mark.parametrize("attn_dim", ["0", "-2"])
    def test_attn_dim_below_one_is_validation_error(self, dataset, stage1_ckpts, tmp_path, capsys,
                                                    attn_dim):
        speech, text = stage1_ckpts
        code = cli_dispatch(
            ["train-stage2", "--data", str(dataset), "--task", "categorical", "--epochs", "1",
             "--seed", "7", "--speech-ckpt", str(speech), "--text-ckpt", str(text),
             "--fusion", "cross_attention", f"--attn-dim={attn_dim}",
             "--out", str(tmp_path / "s2.fckp")]
        )
        assert code == 1
        assert f"attn_dim must be >= 1, got {attn_dim}" in capsys.readouterr().err
        assert not (tmp_path / "s2.fckp").exists()

    def test_numeric_failure_prints_only_the_located_line(self, dataset, tmp_path):
        src = str(Path(dataio.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "serlab.cli", "train-stage1", "--data", str(dataset),
             "--modality", "text", "--task", "categorical", "--lr", "1e300", "--epochs", "2",
             "--seed", "3", "--out", str(tmp_path / "t.fckp")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert "RuntimeWarning" not in done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("failure: stage-1 text training failed")

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_dispatch(["train-stage1", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "default 32" in text
        assert "1e-5" in text and "5e-6" in text
        assert "20 stage 1" in text and "5 stage 2" in text

    @pytest.mark.parametrize("edges", ["nan,3,5,7", "1,3,5,inf", "-inf,3,5,7"])
    def test_non_finite_bin_edges_exit_1(self, tmp_path, capsys, edges):
        labels = [LabelRow(f"u{i}", "test1", "A", (1.5 + i, 2.0, 4.0)) for i in range(4)]
        labels_path, pred_path = tmp_path / "labels.csv", tmp_path / "preds.csv"
        write_labels(labels_path, labels)
        preds = PredictionSet()
        for row in labels:
            preds.add_attributes(row.id, row.attributes)
        write_predictions(pred_path, preds)
        out = tmp_path / "bins.json"
        assert cli_dispatch(
            ["analyze", "bins", "--pred", str(pred_path), "--labels", str(labels_path),
             "--attribute", "valence", f"--edges={edges}", "--out", str(out)]
        ) == 1
        assert "edges must be finite" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["labels.csv", "preds.csv"]


class TestConfigFiles:
    def test_key_value_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nseed = 9\nclass-counts = 4,4,4,4,4,4,4,4\n")
        values = load_config_file(cfg)
        assert values == {"seed": "9", "class_counts": "4,4,4,4,4,4,4,4"}

    def test_config_supplies_values_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "ds"
        cfg.write_text(f"class_counts = 4,4,4,4,4,4,4,4\nseed = 3\nout = {out}\n")
        assert cli_dispatch(["gen-synth", "--config", str(cfg)]) == 0
        # flag overrides the config seed; different data proves the override
        out2 = tmp_path / "ds2"
        assert cli_dispatch(
            ["gen-synth", "--config", str(cfg), "--seed", "4", "--out", str(out2)]
        ) == 0
        assert (out / "speech.femb").read_bytes() != (out2 / "speech.femb").read_bytes()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus_key = 1\n")
        assert cli_dispatch(["gen-synth", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1

    def test_config_key_must_name_a_flag_in_full(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("noise = 0.1\n")  # a prefix of --noise-sigma
        assert cli_dispatch(["gen-synth", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1
        assert not (tmp_path / "d").exists()

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        assert cli_dispatch(["gen-synth", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1

    def test_flag_with_equals_overrides_config(self, dataset, tmp_path):
        cfg = tmp_path / "s1.cfg"
        cfg.write_text(f"data = {dataset}\nmodality = text\ntask = categorical\n"
                       "batch_size = 16\nepochs = 1\nseed = 5\n")
        out = tmp_path / "c.fckp"
        assert cli_dispatch(
            ["train-stage1", "--config", str(cfg), "--batch-size=8", "--out", str(out)]
        ) == 0
        assert Checkpoint.load(out).metadata["config"]["batch_size"] == 8

    def test_stage2_has_no_encoder_shape_flags(self, dataset, stage1_ckpts, tmp_path):
        speech, text = stage1_ckpts
        code = cli_dispatch(
            ["train-stage2", "--data", str(dataset), "--task", "categorical", "--epochs", "1",
             "--seed", "7", "--speech-ckpt", str(speech), "--text-ckpt", str(text),
             "--hidden-dim", "8", "--out", str(tmp_path / "s2.fckp")]
        )
        assert code == 1

    def test_config_value_checked_against_choices(self, dataset, stage1_ckpts, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("split = bogus\n")
        code = cli_dispatch(
            ["predict", "--config", str(cfg), "--ckpt", str(stage1_ckpts[0]),
             "--data", str(dataset), "--out", str(tmp_path / "p.csv")]
        )
        assert code == 1
        assert "--split" in capsys.readouterr().err

    def test_config_boolean_matches_switch(self, dataset, tmp_path):
        ckpt = tmp_path / "a.fckp"
        assert cli_dispatch(
            ["train-stage1", "--data", str(dataset), "--modality", "text", "--task", "attributes",
             "--lr", "0.01", "--epochs", "1", "--seed", "4", "--out", str(ckpt)]
        ) == 0
        base = ["predict", "--ckpt", str(ckpt), "--data", str(dataset)]
        outputs = {}
        for name, extra in (("default", []), ("switch", ["--no-clamp"])):
            outputs[name] = tmp_path / f"{name}.csv"
            assert cli_dispatch(base + extra + ["--out", str(outputs[name])]) == 0
        for value in ("true", "false"):
            cfg = tmp_path / f"{value}.cfg"
            cfg.write_text(f"no_clamp = {value}\n")
            outputs[value] = tmp_path / f"{value}.csv"
            assert cli_dispatch(base + ["--config", str(cfg), "--out", str(outputs[value])]) == 0
        raw = {name: path.read_bytes() for name, path in outputs.items()}
        assert raw["switch"] != raw["default"]  # some raw outputs leave [1, 7]
        assert raw["true"] == raw["switch"]
        assert raw["false"] == raw["default"]


class TestEvaluate:
    def test_perfect_predictions_give_row_of_ones(self, tmp_path):
        labels = [
            LabelRow(
                f"u{i}", "test1", "ACDFHNSU"[i % 8],
                (1.5 + i % 5, 2.0 + i % 4, 4.0 + i % 3),
            )
            for i in range(16)
        ]
        labels_path = tmp_path / "labels.csv"
        write_labels(labels_path, labels)
        preds = PredictionSet()
        for row in labels:
            preds.ids.append(row.id)
            preds.labels[row.id] = row.emotion
            preds.attributes[row.id] = row.attributes
        pred_path = tmp_path / "preds.csv"
        write_predictions(pred_path, preds)
        out = tmp_path / "report"
        code = cli_dispatch(
            ["evaluate", "--pred", str(pred_path), "--labels", str(labels_path),
             "--method", "exact", "--out", str(out)]
        )
        assert code == 0
        row = (tmp_path / "report.csv").read_text().splitlines()[1]
        assert row == "exact,1.000,1.000,1.000,1.000,1.000,1.000,1.000"
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["classification"]["accuracy"] == 1.0
        assert doc["attributes"]["ccc_avg"] == 1.0

    def test_unknown_prediction_id_rejected(self, tmp_path):
        labels_path = tmp_path / "labels.csv"
        write_labels(labels_path, [LabelRow("u1", "test1", "A", None)])
        preds = PredictionSet()
        preds.add_label("zz", "A")
        pred_path = tmp_path / "preds.csv"
        write_predictions(pred_path, preds)
        code = cli_dispatch(
            ["evaluate", "--pred", str(pred_path), "--labels", str(labels_path),
             "--out", str(tmp_path / "r")]
        )
        assert code == 1


    def test_unknown_prediction_id_names_the_labels_file(self, tmp_path, capsys):
        labels_path = tmp_path / "labels.csv"
        write_labels(labels_path, [LabelRow("u1", "test1", None, (4.0, 4.0, 4.0))])
        pred_path = tmp_path / "preds.csv"
        pred_path.write_text("id,emotion,arousal,valence,dominance\nzz,,4.0,4.0,4.0\n")
        assert cli_dispatch(["evaluate", "--pred", str(pred_path), "--labels", str(labels_path),
                             "--out", str(tmp_path / "r")]) == 1
        assert f"error: {labels_path}: prediction id 'zz' not found in labels" \
            in capsys.readouterr().err

    def test_prediction_file_without_outputs_is_named(self, tmp_path, capsys):
        labels_path = tmp_path / "labels.csv"
        write_labels(labels_path, [LabelRow("u1", "test1", "A", None)])
        pred_path = tmp_path / "preds.csv"
        pred_path.write_text("id,emotion,arousal,valence,dominance\nu1,,,,\n")
        assert cli_dispatch(["evaluate", "--pred", str(pred_path), "--labels", str(labels_path),
                             "--out", str(tmp_path / "r")]) == 1
        assert f"error: {pred_path}: prediction file holds neither labels nor attributes" \
            in capsys.readouterr().err

    def test_duplicate_prediction_id_rejected(self, tmp_path, capsys):
        labels_path = tmp_path / "labels.csv"
        write_labels(labels_path, [LabelRow("u1", "test1", "A", None),
                                   LabelRow("u2", "test1", "C", None)])
        pred_path = tmp_path / "preds.csv"
        pred_path.write_text("id,emotion,arousal,valence,dominance\nu1,A,,,\nu2,A,,,\nu1,A,,,\n")
        code = cli_dispatch(
            ["evaluate", "--pred", str(pred_path), "--labels", str(labels_path),
             "--out", str(tmp_path / "r")]
        )
        assert code == 1
        assert f"{pred_path}: line 4: duplicate id 'u1'" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()


class TestPipelineCommands:
    def test_train_predict_evaluate_analyze(self, dataset, stage1_ckpts, tmp_path):
        speech, text = stage1_ckpts
        s2 = tmp_path / "s2.fckp"
        code = cli_dispatch(
            ["train-stage2", "--data", str(dataset), "--task", "attributes",
             "--fusion", "concat", "--activation", "mish", "--lr", "0.005",
             "--epochs", "3", "--seed", "7", "--speech-ckpt", str(speech),
             "--text-ckpt", str(text), "--out", str(s2)]
        )
        assert code == 0
        preds = tmp_path / "preds.csv"
        assert cli_dispatch(
            ["predict", "--ckpt", str(s2), "--data", str(dataset),
             "--split", "test1", "--out", str(preds)]
        ) == 0
        report = tmp_path / "rep"
        assert cli_dispatch(
            ["evaluate", "--pred", str(preds), "--labels", str(dataset / "labels.csv"),
             "--split", "test1", "--out", str(report)]
        ) == 0
        header = (tmp_path / "rep.csv").read_text().splitlines()[0]
        assert header == "method,f1_macro,f1_micro,acc,val,aro,dom,avg"

        bins_out = tmp_path / "bins.json"
        assert cli_dispatch(
            ["analyze", "bins", "--pred", str(preds), "--labels", str(dataset / "labels.csv"),
             "--split", "test1", "--attribute", "valence", "--edges", "1,3,5,7",
             "--out", str(bins_out)]
        ) == 0
        doc = json.loads(bins_out.read_text())
        assert [b["bin"] for b in doc["bins"]] == ["[1, 3)", "[3, 5)", "[5, 7]"]

        stats_out = tmp_path / "stats.json"
        assert cli_dispatch(
            ["analyze", "stats", "--pred", str(preds), "--labels", str(dataset / "labels.csv"),
             "--split", "test1", "--attribute", "valence", "--out", str(stats_out)]
        ) == 0
        doc = json.loads(stats_out.read_text())
        assert "±" in doc["prediction"]["formatted"]

        cmp_out = tmp_path / "cmp.json"
        assert cli_dispatch(
            ["analyze", "compare", "--pred-a", str(preds), "--pred-b", str(preds),
             "--labels", str(dataset / "labels.csv"), "--split", "test1",
             "--attribute", "valence", "--out", str(cmp_out)]
        ) == 0
        doc = json.loads(cmp_out.read_text())
        assert doc["improved_count"] == 0  # identical predictions tie everywhere

    def test_replay_reproduces_training(self, dataset, tmp_path):
        ckpt = tmp_path / "replayed.fckp"
        argv = ["train-stage1", "--data", str(dataset), "--modality", "speech",
                "--task", "categorical", "--lr", "0.01", "--epochs", "2",
                "--seed", "11", "--out", str(ckpt)]
        assert cli_dispatch(argv) == 0
        assert cli_dispatch(["replay", "--manifest", str(ckpt) + ".manifest.json"]) == 0


class TestSweeps:
    def test_table2_schema(self, dataset, tmp_path):
        out = tmp_path / "table2.csv"
        code = cli_dispatch(
            ["sweep", "table2", "--data", str(dataset), "--seed", "2",
             "--lr", "0.01", "--epochs", "2", "--split", "test1", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["method", "f1_macro", "f1_micro", "acc", "val", "aro", "dom", "avg"]
        assert [r[0] for r in rows[1:]] == ["WCE", "Balanced Sample", "Focal Loss"]
        for r in rows[1:]:
            assert r[4] == r[5] == r[6] == r[7] == ""  # categorical-only rows

    def test_parallel_rows_match_sequential(self, dataset, tmp_path):
        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        base = ["sweep", "table2", "--data", str(dataset), "--seed", "2",
                "--lr", "0.01", "--epochs", "1", "--split", "test1"]
        assert cli_dispatch(base + ["--out", str(seq)]) == 0
        assert cli_dispatch(base + ["--parallel", "3", "--out", str(par)]) == 0
        assert seq.read_bytes() == par.read_bytes()

    def test_table1_parallel_rows_match_sequential(self, dataset, stage1_ckpts, tmp_path):
        speech, text = stage1_ckpts
        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        base = ["sweep", "table1", "--data", str(dataset), "--speech-ckpt", str(speech),
                "--text-ckpt", str(text), "--seed", "3", "--lr", "0.005",
                "--epochs", "1", "--split", "test1"]
        assert cli_dispatch(base + ["--out", str(seq)]) == 0
        assert cli_dispatch(base + ["--parallel", "2", "--out", str(par)]) == 0
        assert seq.read_bytes() == par.read_bytes()

    @pytest.mark.parametrize("table, flags, message", [
        ("table1", ["--batch-size", "1"], "ccc_loss needs batch_size >= 2, got 1"),
        ("table2", ["--batch-size", "12"], "needs batch_size a multiple of 8, got 12"),
    ])
    def test_bad_config_fails_before_any_read_or_run(self, dataset, stage1_ckpts, tmp_path,
                                                     capsys, monkeypatch, table, flags, message):
        runs, reads = [], []
        monkeypatch.setattr(trainer, "train_stage1", lambda *a, **k: runs.append(a))
        monkeypatch.setattr(trainer, "train_stage2", lambda *a, **k: runs.append(a))
        monkeypatch.setattr(dataio, "load_dataset", lambda *a: reads.append(a))
        monkeypatch.setattr(Checkpoint, "load", lambda path: reads.append(path))
        ckpts = ["--speech-ckpt", str(stage1_ckpts[0]), "--text-ckpt", str(stage1_ckpts[1])]
        out = tmp_path / "table.csv"
        argv = ["sweep", table, "--data", str(dataset), "--seed", "3", "--epochs", "1",
                *(ckpts if table == "table1" else []), *flags, "--out", str(out)]
        assert cli_dispatch(argv) == 1
        assert message in capsys.readouterr().err
        assert runs == [] and reads == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_parallel_below_1_is_validation_error(self, dataset, tmp_path, capsys,
                                                  monkeypatch, value):
        runs = []
        monkeypatch.setattr(trainer, "train_stage1", lambda *a, **k: runs.append(a))
        out = tmp_path / "table2.csv"
        argv = ["sweep", "table2", "--data", str(dataset), "--seed", "2", "--epochs", "1",
                f"--parallel={value}", "--out", str(out)]
        assert cli_dispatch(argv) == 1
        assert "--parallel" in capsys.readouterr().err
        assert runs == []
        assert not out.exists()

    def test_parallel_pool_has_at_most_one_worker_per_row(self, dataset, tmp_path,
                                                          monkeypatch):
        workers = []

        class InProcessPool:  # records the pool size; forks nothing
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        base = ["sweep", "table2", "--data", str(dataset), "--seed", "2", "--lr", "0.01",
                "--epochs", "1"]
        seq, wide, two = (tmp_path / f"{name}.csv" for name in ("seq", "wide", "two"))
        assert cli_dispatch(base + ["--out", str(seq)]) == 0
        assert cli_dispatch(base + ["--parallel", "64", "--out", str(wide)]) == 0
        assert cli_dispatch(base + ["--parallel", "2", "--out", str(two)]) == 0
        assert workers == [3, 2]
        assert seq.read_bytes() == wide.read_bytes() == two.read_bytes()

    def test_table1_encodes_each_chunk_once(self, dataset, stage1_ckpts, tmp_path, monkeypatch):
        # the four concat runs read train and dev in chunks of the batch size
        # and predict test1 in the same chunks: one encode per chunk and modality
        speech, text = stage1_ckpts
        real_forward, calls = model.encoder_forward, []

        def counting_forward(cfg, *rest):
            calls.append(cfg.modality)
            return real_forward(cfg, *rest)

        monkeypatch.setattr(model, "encoder_forward", counting_forward)
        assert cli_dispatch(
            ["sweep", "table1", "--data", str(dataset), "--speech-ckpt", str(speech),
             "--text-ckpt", str(text), "--seed", "3", "--lr", "0.005", "--epochs", "2",
             "--batch-size", "16", "--split", "test1", "--out", str(tmp_path / "table1.csv")]
        ) == 0
        splits = [row.split for row in dataio.read_labels(dataset / "labels.csv")]
        chunks = sum(-(-splits.count(split) // 16) for split in dataio.SPLITS)
        assert sorted(calls) == ["speech"] * chunks + ["text"] * chunks

    def test_table1_schema(self, dataset, stage1_ckpts, tmp_path):
        speech, text = stage1_ckpts
        out = tmp_path / "table1.csv"
        code = cli_dispatch(
            ["sweep", "table1", "--data", str(dataset), "--speech-ckpt", str(speech),
             "--text-ckpt", str(text), "--seed", "3", "--lr", "0.005",
             "--epochs", "1", "--split", "test1", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert [r[0] for r in rows[1:]] == ["Cross Attention", "Concat", "Concat (Mish)"]
        for r in rows[1:]:
            assert len(r) == 8
            assert all(cell != "" for cell in r[1:])


    def test_table1_swapped_checkpoints_exit_1(self, dataset, stage1_ckpts, tmp_path):
        speech, text = stage1_ckpts
        out = tmp_path / "table1.csv"
        assert cli_dispatch(
            ["sweep", "table1", "--data", str(dataset), "--speech-ckpt", str(text),
             "--text-ckpt", str(speech), "--seed", "3", "--epochs", "1", "--out", str(out)]
        ) == 1
        assert not out.exists()

    def test_table1_rows_match_standalone_commands(self, dataset, stage1_ckpts, tmp_path):
        speech, text = stage1_ckpts
        common = ["--data", str(dataset), "--seed", "3", "--lr", "0.005", "--epochs", "1"]
        table = tmp_path / "table1.csv"
        assert cli_dispatch(
            ["sweep", "table1", *common, "--speech-ckpt", str(speech), "--text-ckpt", str(text),
             "--split", "test1", "--out", str(table)]
        ) == 0
        rows = {r[0]: r for r in csv.reader(table.read_text().splitlines()[1:])}
        for method, fusion in (("Cross Attention", "cross_attention"), ("Concat", "concat")):
            cells = {}
            for task, columns in (("categorical", slice(1, 4)), ("attributes", slice(4, 8))):
                ckpt, preds, report = (tmp_path / f"{fusion}_{task}{ext}"
                                       for ext in (".fckp", ".csv", "_report"))
                assert cli_dispatch(
                    ["train-stage2", *common, "--task", task, "--fusion", fusion,
                     "--activation", "relu", "--speech-ckpt", str(speech),
                     "--text-ckpt", str(text), "--out", str(ckpt)]
                ) == 0
                assert cli_dispatch(
                    ["predict", "--ckpt", str(ckpt), "--data", str(dataset), "--split", "test1",
                     "--out", str(preds)]
                ) == 0
                assert cli_dispatch(
                    ["evaluate", "--pred", str(preds), "--labels", str(dataset / "labels.csv"),
                     "--split", "test1", "--out", str(report)]
                ) == 0
                row = next(csv.reader(report.with_suffix(".csv").read_text().splitlines()[1:]))
                cells[task] = row[columns]
            assert rows[method][1:] == cells["categorical"] + cells["attributes"], method


class TestLlmCommands:
    def test_prompt_command(self, capsys):
        assert cli_dispatch(["llm", "prompt", "--task", "categorical",
                             "--transcript", "hello"]) == 0
        out = capsys.readouterr().out
        assert "Transcription: hello" in out

    def test_run_and_score(self, tmp_path):
        transcripts = tmp_path / "tr.csv"
        with open(transcripts, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["id", "transcript"])
            writer.writerow(["u1", "what a day"])
            writer.writerow(["u2", "the worst"])
        labels_path = tmp_path / "labels.csv"
        write_labels(labels_path, [
            LabelRow("u1", "test1", "S", None),
            LabelRow("u2", "test1", "S", None),
            LabelRow("u3", "test1", "A", None),
        ])
        server = MockChatServer(lambda prompt: "Sadness")
        preds = tmp_path / "llm_preds.csv"
        try:
            code = cli_dispatch(
                ["llm", "run", "--task", "categorical", "--transcripts", str(transcripts),
                 "--endpoint", server.url, "--model", "mock", "--cache",
                 str(tmp_path / "cache.jsonl"), "--out", str(preds)]
            )
        finally:
            server.shutdown()
        assert code == 0
        failures = json.loads((tmp_path / "llm_preds.csv.failures.json").read_text())
        assert failures["failure_count"] == 0
        out = tmp_path / "score"
        assert cli_dispatch(
            ["llm", "score", "--pred", str(preds), "--labels", str(labels_path),
             "--split", "test1", "--method", "mock-llm", "--out", str(out)]
        ) == 0
        doc = json.loads((tmp_path / "score.json").read_text())
        assert doc["excluded_count"] == 1  # u3 never queried
        assert doc["classification"]["accuracy"] == 1.0

    @staticmethod
    def _transcripts(path, rows) -> None:
        with open(path, "w", newline="") as f:
            csv.writer(f).writerows([["id", "transcript"]] + rows)

    def test_run_manifest_lists_transcripts_and_config_never_the_cache(self, tmp_path):
        transcripts = tmp_path / "tr.csv"
        self._transcripts(transcripts, [["u1", "what a day"], ["u2", "the worst"]])
        cfg = tmp_path / "llm.cfg"
        cfg.write_text("model = mock\n")
        cache = tmp_path / "cache.jsonl"
        server = MockChatServer(lambda prompt: "Sadness")
        try:
            for run in ("fresh", "cached"):  # the second run reads the cache
                preds = tmp_path / f"{run}.csv"
                assert cli_dispatch(
                    ["llm", "run", "--config", str(cfg), "--task", "categorical",
                     "--transcripts", str(transcripts), "--endpoint", server.url,
                     "--cache", str(cache), "--out", str(preds)]
                ) == 0
                inputs = json.loads(Path(str(preds) + ".manifest.json").read_text())["inputs"]
                assert inputs == {
                    str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in (transcripts, cfg)
                }
        finally:
            server.shutdown()
        assert len(server.requests) == 2

    def test_duplicate_transcript_id_rejected(self, tmp_path, capsys):
        transcripts = tmp_path / "tr.csv"
        self._transcripts(transcripts, [["u1", "what a day"], ["u1", "the worst"]])
        server = MockChatServer(lambda prompt: "Sadness")
        try:
            code = cli_dispatch(
                ["llm", "run", "--task", "categorical", "--transcripts", str(transcripts),
                 "--endpoint", server.url, "--model", "mock", "--out", str(tmp_path / "p.csv")]
            )
        finally:
            server.shutdown()
        assert code == 1
        assert f"{transcripts}: line 3: duplicate id 'u1'" in capsys.readouterr().err
        assert server.requests == []

    def test_cache_in_missing_directory_fails_before_any_request(self, tmp_path, capsys):
        transcripts = tmp_path / "tr.csv"
        self._transcripts(transcripts, [["u1", "what a day"], ["u2", "the worst"]])
        cache = tmp_path / "missing" / "c.jsonl"
        server = MockChatServer(lambda prompt: "Sadness")
        try:
            code = cli_dispatch(
                ["llm", "run", "--task", "categorical", "--transcripts", str(transcripts),
                 "--endpoint", server.url, "--model", "mock", "--cache", str(cache),
                 "--out", str(tmp_path / "p.csv")]
            )
        finally:
            server.shutdown()
        assert code == 1
        assert f"--cache {cache}: directory" in capsys.readouterr().err
        assert server.requests == []
        assert not (tmp_path / "p.csv").exists()


def _bytes_under(root: Path) -> dict:
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestOutputsLandTogether:
    def _train(self, dataset, tmp_path, epochs="2", out="s.fckp"):
        return ["train-stage1", "--data", str(dataset), "--modality", "text",
                "--task", "categorical", "--lr", "0.01", "--epochs", epochs, "--seed", "3",
                "--out", str(tmp_path / out), "--log", str(tmp_path / "s.jsonl")]

    def test_missing_out_directory_fails_before_training(self, dataset, tmp_path, capsys,
                                                         monkeypatch):
        assert cli_dispatch(self._train(dataset, tmp_path)) == 0
        before = _bytes_under(tmp_path)
        trained = []
        monkeypatch.setattr(trainer, "train_stage1", lambda *a, **k: trained.append(a))
        missing = str(tmp_path / "missing" / "s.fckp")
        capsys.readouterr()
        assert cli_dispatch(self._train(dataset, tmp_path, "3", "missing/s.fckp")) == 1
        err = capsys.readouterr().err
        assert err == (f"error: --out {missing}: directory "
                       f"{str(tmp_path / 'missing')!r} does not exist\n")
        assert trained == []
        assert _bytes_under(tmp_path) == before

    def test_missing_log_directory_fails_before_training(self, dataset, tmp_path, capsys):
        argv = self._train(dataset, tmp_path)
        argv[-1] = str(tmp_path / "logs" / "s.jsonl")
        assert cli_dispatch(argv) == 1
        assert f"error: --log {argv[-1]}: directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_checkpoint_write_keeps_every_previous_output(self, dataset, tmp_path,
                                                                 monkeypatch):
        assert cli_dispatch(self._train(dataset, tmp_path)) == 0
        before = _bytes_under(tmp_path)
        assert len(before) == 3  # checkpoint, log, manifest

        def failing_write(*args):
            raise OSError("disk full")

        monkeypatch.setattr(dataio, "write_checkpoint", failing_write)
        assert cli_dispatch(self._train(dataset, tmp_path, "3")) == 2
        assert _bytes_under(tmp_path) == before

    def test_failed_report_json_keeps_the_previous_csv(self, dataset, stage1_ckpts, tmp_path,
                                                       monkeypatch):
        preds, report = tmp_path / "p.csv", tmp_path / "rep"
        assert cli_dispatch(["predict", "--ckpt", str(stage1_ckpts[0]), "--data", str(dataset),
                             "--out", str(preds)]) == 0
        argv = ["evaluate", "--pred", str(preds), "--labels", str(dataset / "labels.csv"),
                "--out", str(report)]
        assert cli_dispatch(argv + ["--method", "first"]) == 0
        before = _bytes_under(tmp_path)

        def failing_json(path, doc):
            raise OSError("disk full")

        monkeypatch.setattr(dataio, "write_json", failing_json)
        assert cli_dispatch(argv + ["--method", "second"]) == 2
        assert _bytes_under(tmp_path) == before

    def test_report_prefix_is_kept_as_typed(self, dataset, stage1_ckpts, tmp_path):
        preds = tmp_path / "p.csv"
        assert cli_dispatch(["predict", "--ckpt", str(stage1_ckpts[0]), "--data", str(dataset),
                             "--out", str(preds)]) == 0
        for prefix in ("run.v1", "run.v2"):
            assert cli_dispatch(["evaluate", "--pred", str(preds), "--labels",
                                 str(dataset / "labels.csv"), "--out", str(tmp_path / prefix)]) == 0
        reports = sorted(p.name for p in tmp_path.glob("run.*") if "manifest" not in p.name)
        assert reports == ["run.v1.csv", "run.v1.json", "run.v2.csv", "run.v2.json"]
        manifest = json.loads((tmp_path / "run.v2.manifest.json").read_text())
        assert sorted(manifest["outputs"]) == [str(tmp_path / "run.v2.csv"),
                                               str(tmp_path / "run.v2.json")]

    @pytest.mark.parametrize("spelling", ["{dir}/preds", "{dir}/sub/../preds"])
    def test_output_over_a_parsed_input_is_validation_error(self, dataset, stage1_ckpts,
                                                            tmp_path, capsys, spelling):
        preds = tmp_path / "preds.csv"
        assert cli_dispatch(["predict", "--ckpt", str(stage1_ckpts[0]), "--data", str(dataset),
                             "--out", str(preds)]) == 0
        (tmp_path / "sub").mkdir()
        before = _bytes_under(tmp_path)
        out = spelling.format(dir=tmp_path)
        capsys.readouterr()
        assert cli_dispatch(["evaluate", "--pred", str(preds), "--labels",
                             str(dataset / "labels.csv"), "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: {out}.csv: output would overwrite an input the command read\n")
        assert _bytes_under(tmp_path) == before

    def test_failed_manifest_lands_no_output(self, dataset, stage1_ckpts, tmp_path, monkeypatch):
        from serlab import cli

        def failing_manifest(args, argv):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_manifest", failing_manifest)
        preds = tmp_path / "p.csv"
        assert cli_dispatch(["predict", "--ckpt", str(stage1_ckpts[0]), "--data", str(dataset),
                             "--out", str(preds)]) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [
        ["gen-synth", "--separation", "nan"],
        ["gen-synth", "--separation", "inf"],
        ["gen-synth", "--noise-sigma", "inf"],
        ["gen-synth", "--split-fractions", "nan,0.5,0.5"],
        ["gen-synth", "--anchors", ";".join(["nan,4,4"] + ["4,4,4"] * 7)],
        ["train-stage1", "--lr", "nan"],
        ["train-stage1", "--lr", "inf"],
        ["train-stage1", "--focal-gamma", "nan"],
        ["train-stage1", "--focal-gamma", "inf"],
    ], ids=lambda flags: " ".join(flags))
    def test_non_finite_number_is_validation_error(self, dataset, tmp_path, capsys, flags):
        out = tmp_path / "out"
        if flags[0] == "gen-synth":
            argv = flags + ["--class-counts", ",".join(["4"] * 8)]
        else:
            argv = self._train(dataset, tmp_path)[:-4] + flags[1:]
        assert cli_dispatch(argv + ["--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_balanced_batch_size_fails_before_loading(self, dataset, tmp_path, capsys,
                                                      monkeypatch):
        reads = []
        monkeypatch.setattr(dataio, "load_dataset", lambda *a: reads.append(a))
        out = tmp_path / "out"
        argv = self._train(dataset, tmp_path)[:-4] + ["--sampler", "balanced",
                                                      "--batch-size", "12", "--out", str(out)]
        assert cli_dispatch(argv) == 1
        assert "sampler 'balanced' needs batch_size a multiple of 8, got 12" in (
            capsys.readouterr().err)
        assert reads == []
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["train-stage1", "--modality", "text", "--task", "attributes"],
        ["sweep", "table2"],
    ], ids=["train-stage1 attributes", "sweep table2"])
    def test_negative_focal_gamma_is_validation_error(self, dataset, tmp_path, capsys,
                                                      monkeypatch, command):
        trained = []
        monkeypatch.setattr(trainer, "train_stage1", lambda *a, **k: trained.append(a))
        out = tmp_path / "out"
        argv = command + ["--data", str(dataset), "--seed", "3", "--epochs", "1",
                          "--focal-gamma", "-1", "--out", str(out)]
        assert cli_dispatch(argv) == 1
        assert "focal_gamma must be >= 0" in capsys.readouterr().err
        assert trained == []
        assert not out.exists()

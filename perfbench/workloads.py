"""The benchmark's workloads: the serlab commands each one runs, and the
checks on what those commands write.

Every command is the argv a shell user would pass to ``serlab``; the runner
hands it to ``cli.cli_dispatch`` in its own process.  The workload seed only
chooses the generated data and the training seeds.  README.md says why each
workload exists.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Quality floors for every scored output.  Over seeds 201-210 the lowest
# scores were F1-micro 0.88 and CCC 0.81; a broken gradient or a constant
# predictor gives F1 near 1/8 and CCC near 0.
FLOORS = {"f1_micro": 0.70, "ccc_avg": 0.60}


@dataclass
class Unit:
    """One checked operation, or a group of them (a sweep row stands for
    two training runs and two predict runs)."""

    ops: int
    fingerprint: dict
    quality: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


@dataclass
class Command:
    argv: list
    inspect: Callable[[], list]
    train_examples: int = 0
    scored_utts: int = 0
    ops: int = 1


@dataclass
class Outcome:
    argv: list
    rc: int
    wall_s: float
    units: list
    stderr: str
    train_examples: int
    scored_utts: int


@dataclass(frozen=True)
class Rows:
    train: int
    dev: int
    test1: int


def count_rows(data: Path) -> Rows:
    with open(data / "labels.csv", newline="", encoding="utf-8") as f:
        splits = [row["split"] for row in csv.DictReader(f)]
    return Rows(splits.count("train"), splits.count("dev"), splits.count("test1"))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def execute(cli, cmd: Command, tracer=None) -> Outcome:
    """Run one command closed-loop and check its outputs; checks run untraced."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.cli_dispatch(list(cmd.argv))
    except Exception:  # a crash that escapes the CLI fails this command only
        rc = -1
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    was_active = bool(tracer and tracer.active)
    if was_active:
        tracer.active = False
    try:
        units = cmd.inspect() if rc == 0 else [Unit(cmd.ops, {}, problems=[f"exit code {rc}"])]
    except Exception:
        units = [Unit(cmd.ops, {}, problems=["output check raised:\n" + traceback.format_exc()])]
    finally:
        if was_active:
            tracer.active = True
    ok = rc == 0
    return Outcome(cmd.argv, rc, wall, units, err.getvalue(),
                   cmd.train_examples if ok else 0, cmd.scored_utts if ok else 0)


# ---------------------------------------------------------------------------
# output checks

def _checkpoint(path: Path) -> list:
    from serlab.trainer import Checkpoint

    ckpt = Checkpoint.load(path)
    meta = ckpt.metadata
    fingerprint = {"content_id": ckpt.content_id,
                   "train_loss": [h["train_loss"] for h in meta["history"]]}
    key = "f1_micro" if meta["task"] == "categorical" else "ccc_avg"
    return [Unit(1, fingerprint, {key: meta["dev_metrics"][key]})]


def _files(*paths: Path) -> Callable[[], list]:
    return lambda: [Unit(1, {p.name: sha256(p) for p in paths})]


def _predictions(path: Path, expected: int) -> list:
    with open(path, encoding="utf-8") as f:
        rows = sum(1 for _ in f) - 1
    problems = [] if rows == expected else [f"{rows} predictions, expected {expected}"]
    return [Unit(1, {path.name: sha256(path)}, problems=problems)]


def _report(prefix: Path) -> list:
    path = prefix.with_suffix(".json")
    doc = json.loads(path.read_text(encoding="utf-8"))
    quality = {}
    if "classification" in doc:
        quality["f1_micro"] = doc["classification"]["f1_micro"]
    if "attributes" in doc:
        quality["ccc_avg"] = doc["attributes"]["ccc_avg"]
    return [Unit(1, {path.name: sha256(path)}, quality)]


def _table1(path: Path) -> list:
    lines = path.read_text(encoding="utf-8").splitlines()
    units = []
    for line in lines[1:]:
        cells = line.split(",")
        units.append(Unit(4, {"row": line}, {"f1_micro": float(cells[2]), "ccc_avg": float(cells[7])}))
    if len(units) != 3:
        units.append(Unit(0, {}, problems=[f"table1 has {len(units)} rows, expected 3"]))
    return units


# ---------------------------------------------------------------------------
# command builders

def _gen_synth(data: Path, counts: int, fractions: tuple, seed: int,
               frames: str | None = None) -> Command:
    argv = ["gen-synth", "--class-counts", ",".join([str(counts)] * 8),
            "--separation", "1.5", "--noise-sigma", "0.3",
            "--split-fractions", ",".join(repr(x) for x in fractions),
            "--seed", str(seed), "--out", str(data)]
    if frames:
        argv += ["--frame-range", frames]
    files = [data / "speech.femb", data / "text.femb", data / "labels.csv"]
    return Command(argv, _files(*files))


def _train(stage: int, data: Path, out: Path, rows: Rows, epochs: int, **flags) -> Command:
    argv = [f"train-stage{stage}", "--data", str(data), "--epochs", str(epochs), "--out", str(out)]
    for key, value in flags.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    return Command(argv, lambda: _checkpoint(out), train_examples=rows.train * epochs,
                   scored_utts=rows.dev * epochs)


def _predict(ckpt: Path, data: Path, out: Path, rows: Rows) -> Command:
    argv = ["predict", "--ckpt", str(ckpt), "--data", str(data), "--split", "test1", "--out", str(out)]
    return Command(argv, lambda: _predictions(out, rows.test1), scored_utts=rows.test1)


def _labels(data: Path) -> list:
    return ["--labels", str(data / "labels.csv"), "--split", "test1"]


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    """``data`` generates the inputs, ``checkpoints`` trains what the timed
    section consumes (both are set-up), and ``cycle`` is one closed-loop pass
    of the timed section."""

    data: Callable[[Path, int], Command]
    checkpoints: Callable[[Path, int, Rows], list]
    cycle: Callable[[Path, Path, int, Rows], list]


def _no_checkpoints(data: Path, seed: int, rows: Rows) -> list:
    return []


# stage1_c8: the acceptance-criterion-8 data shape, 8 x 300 utterances split
# 2,000 train / 400 dev, 4-10 frames of 12 features.  One epoch per run keeps
# cycles short, so a run has enough of them for a median.  The attribute run
# gives the workload attribute outputs; at lr 0.005 its dev CCC after one
# epoch spread 0.54-0.88 over six seeds, at 0.03 it spread 0.89-0.94.
C8_EPOCHS = 1
STAGE1_RUNS = (("speech", "categorical", "focal", 0.005), ("text", "categorical", "focal", 0.005),
               ("speech", "attributes", "ccc_loss", 0.03))


def _stage1_data(data: Path, seed: int) -> Command:
    return _gen_synth(data, 300, (2000 / 2400, 400 / 2400, 0.0), seed)


def _stage1_cycle(data: Path, out: Path, seed: int, rows: Rows) -> list:
    return [
        _train(1, data, out / f"{modality}_{task}.fckp", rows, epochs=C8_EPOCHS,
               modality=modality, task=task, loss=loss, lr=lr, seed=seed + k)
        for k, (modality, task, loss, lr) in enumerate(STAGE1_RUNS, start=1)
    ]


# fusion_grid: the same shape plus a 400-utterance test1 split (8 x 350),
# with 1-epoch stage-1 checkpoints built during set-up
GRID_EPOCHS = 1
TABLE1_RUNS = 6  # 3 fusion rows x 2 tasks, each one training run and one predict run


def _grid_data(data: Path, seed: int) -> Command:
    return _gen_synth(data, 350, (250 / 350, 50 / 350, 50 / 350), seed)


def _grid_checkpoints(data: Path, seed: int, rows: Rows) -> list:
    return [
        _train(1, data, data / f"{modality}.fckp", rows, epochs=1, modality=modality,
               task="categorical", loss="focal", lr=0.005, seed=seed + k)
        for k, modality in enumerate(("speech", "text"), start=1)
    ]


def _grid_cycle(data: Path, out: Path, seed: int, rows: Rows) -> list:
    table = out / "table1.csv"
    argv = ["sweep", "table1", "--data", str(data), "--speech-ckpt", str(data / "speech.fckp"),
            "--text-ckpt", str(data / "text.fckp"), "--split", "test1", "--lr", "0.01",
            "--epochs", str(GRID_EPOCHS), "--seed", str(seed + 3), "--parallel", "1",
            "--out", str(table)]
    return [Command(argv, lambda: _table1(table), ops=2 * TABLE1_RUNS,
                    train_examples=TABLE1_RUNS * rows.train * GRID_EPOCHS,
                    scored_utts=TABLE1_RUNS * (rows.dev * GRID_EPOCHS + rows.test1))]


# heldout_score: 8 x 250 utterances of 150-300 frames; 240 train / 80 dev
# utterances train the checkpoints during set-up, 1,680 test1 ones are scored
HELDOUT_TRAIN = dict(lr=0.03, batch_size=8)
HELDOUT_CKPTS = {"speech": "speech_attributes", "text": "text_categorical", "xattn": "xattn_attributes"}


def _heldout_data(data: Path, seed: int) -> Command:
    return _gen_synth(data, 250, (30 / 250, 10 / 250, 210 / 250), seed, frames="150,300")


def _heldout_checkpoints(data: Path, seed: int, rows: Rows) -> list:
    ckpt = {name: data / f"{stem}.fckp" for name, stem in HELDOUT_CKPTS.items()}
    return [
        _train(1, data, ckpt["speech"], rows, epochs=4, modality="speech", task="attributes",
               seed=seed + 1, **HELDOUT_TRAIN),
        _train(1, data, ckpt["text"], rows, epochs=2, modality="text", task="categorical",
               loss="focal", seed=seed + 2, **HELDOUT_TRAIN),
        _train(2, data, ckpt["xattn"], rows, epochs=2, fusion="cross_attention", task="attributes",
               activation="relu", speech_ckpt=ckpt["speech"], text_ckpt=ckpt["text"],
               seed=seed + 3, **HELDOUT_TRAIN),
    ]


def _heldout_cycle(data: Path, out: Path, seed: int, rows: Rows) -> list:
    preds = {name: out / f"{name}.csv" for name in HELDOUT_CKPTS}
    cmds = [_predict(data / f"{HELDOUT_CKPTS[n]}.fckp", data, preds[n], rows) for n in preds]
    for name, path in preds.items():
        prefix = out / f"{name}_report"
        cmds.append(Command(["evaluate", "--pred", str(path), *_labels(data), "--method", name,
                             "--out", str(prefix)], lambda p=prefix: _report(p)))
    bins, stats, compare = out / "bins.json", out / "stats.json", out / "compare.json"
    cmds += [
        Command(["analyze", "bins", "--pred", str(preds["xattn"]), *_labels(data),
                 "--attribute", "valence", "--edges", "1,3,5,7", "--out", str(bins)], _files(bins)),
        Command(["analyze", "stats", "--pred", str(preds["xattn"]), *_labels(data),
                 "--attribute", "valence", "--out", str(stats)], _files(stats)),
        Command(["analyze", "compare", "--pred-a", str(preds["xattn"]), "--pred-b",
                 str(preds["speech"]), *_labels(data), "--attribute", "valence",
                 "--out", str(compare)], _files(compare)),
    ]
    return cmds


WORKLOADS = {
    "stage1_c8": Workload(_stage1_data, _no_checkpoints, _stage1_cycle),
    "fusion_grid": Workload(_grid_data, _grid_checkpoints, _grid_cycle),
    "heldout_score": Workload(_heldout_data, _heldout_checkpoints, _heldout_cycle),
}

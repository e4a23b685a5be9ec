"""Command-line surface binding the experiment grid together.

Subcommands: gen-synth, train-stage1, train-stage2, predict, evaluate,
analyze (bins|stats|compare), llm (prompt|run|score), sweep (table1|table2),
and replay.  A command's outputs land together, and only if it succeeds,
followed by a run manifest with their hashes and those of the inputs it
parsed; ``replay`` checks a manifest's inputs are unchanged, re-executes it
and verifies the outputs reproduce byte-for-byte, landing nothing.

Exit codes: 0 success, 1 validation error, 2 runtime failure.

Config files are flat ``key = value`` lines (``#`` comments).  Each line
enters the parse as ``--key=value`` ahead of the typed flags, so file values
are typed and checked like flags and any typed flag overrides them.
``--seed`` is mandatory for train commands and sweeps.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import dataio, llmproto, metrics, model, trainer
from .dataio import LabelRow, PredictionSet
from .metrics import ATTRIBUTE_NAMES, MetricsReport
from .trainer import Checkpoint, TrainConfig


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Flags match only in full, so a config key must name a flag exactly."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse would exit(2); route to exit code 1
        raise UsageError(message)


# ---------------------------------------------------------------------------
# config files

def load_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(dataio.read_text(path).read().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _with_config(argv: list[str]) -> list[str]:
    """``argv`` with the ``--config`` file's lines as ``--key=value`` flags
    right after the command words, so the flags typed after them win."""
    finder = _Parser(add_help=False)
    finder.add_argument("--config")
    path = finder.parse_known_args(argv)[0].config
    if path is None:
        return argv
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in load_config_file(path).items()]
    words = _command_words(argv)
    return argv[:words] + flags + argv[words:]


def _command_words(argv: list[str]) -> int:
    """How many words name the command: those before the first flag."""
    return next((i for i, token in enumerate(argv) if token.startswith("-")), len(argv))


# ---------------------------------------------------------------------------
# manifests

def write_manifest(args, argv: list[str]) -> None:
    """The run's manifest, ``<--out>.manifest.json`` (``<--out>/manifest.json``
    for gen-synth).  Its inputs are the files the command parsed
    (``dataio.recorded_reads``) and its outputs the files it wrote
    (``dataio.staged_writes``), each with the hash of its bytes."""
    out = args.out
    path = Path(out) / "manifest.json" if args.command == "gen-synth" else f"{out}.manifest.json"
    doc = {
        "command": " ".join(argv[:_command_words(argv)]),
        "argv": list(argv),
        "seed": getattr(args, "seed", None),
        "inputs": dataio.recorded_reads(),
        "outputs": dataio.staged_writes(),
    }
    dataio.write_json(path, doc)


# ---------------------------------------------------------------------------
# flag types

def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _float_rows(text: str) -> list[tuple[float, ...]]:
    return [_float_list(row) for row in text.split(";")]


def _switch(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")
    return text.lower() == "true"


# ---------------------------------------------------------------------------
# small helpers

def _load_records(data_dir, modalities, split: str | None = None):
    records = dataio.load_dataset(data_dir, modalities)
    return records if split is None else _select_split(records, split)


def _select_split(records, split: str):
    selected = [r for r in records if r.split == split]
    if not selected:
        raise ValueError(f"no records in split {split!r}")
    return selected


def _truth_of(records) -> dict[str, LabelRow]:
    return {r.id: LabelRow(r.id, r.split, r.emotion, r.attributes) for r in records}


def _labels_by_id(labels_path, split: str | None) -> dict[str, LabelRow]:
    rows = dataio.read_labels(labels_path)
    if split is not None:
        rows = [r for r in rows if r.split == split]
    return {r.id: r for r in rows}


def _truth_rows(ids, truth: dict[str, LabelRow], need: str) -> list:
    """The ``need`` field (``emotion`` or ``attributes``) of each id's label row."""
    out = []
    for rid in ids:
        row = truth.get(rid)
        if row is None:
            raise ValueError(f"prediction id {rid!r} not found in labels")
        if getattr(row, need) is None:
            raise ValueError(f"record {rid!r} has no {need} label")
        out.append(getattr(row, need))
    return out


def _build_report(preds: PredictionSet, truth: dict[str, LabelRow]) -> MetricsReport:
    classification = None
    attributes = None
    if preds.labels:
        ids = [rid for rid in preds.ids if rid in preds.labels]
        classification = metrics.classification_metrics(
            [preds.labels[rid] for rid in ids], _truth_rows(ids, truth, "emotion")
        )
    if preds.attributes:
        ids = [rid for rid in preds.ids if rid in preds.attributes]
        attributes = metrics.attribute_metrics(
            np.array([preds.attributes[rid] for rid in ids]),
            np.array(_truth_rows(ids, truth, "attributes")),
        )
    if classification is None and attributes is None:
        raise ValueError("prediction file holds neither labels nor attributes")
    return MetricsReport(classification=classification, attributes=attributes)


def _write_table(path, rows: list[str]) -> None:
    """A metrics CSV: the header line, then one line per row."""
    with dataio.atomic_write(path) as f:
        f.write("\n".join([metrics.csv_header()] + rows) + "\n")


def _write_report(out_prefix, method: str, report: MetricsReport, extra: dict | None = None):
    out = Path(out_prefix)
    _write_table(out.with_suffix(".csv"), [report.csv_row(method)])
    doc = report.to_dict()
    doc["method"] = method
    if extra:
        doc.update(extra)
    dataio.write_json(out.with_suffix(".json"), doc)


def _attribute_column(preds: PredictionSet, attribute: str) -> tuple[list[str], list[float]]:
    col = ATTRIBUTE_NAMES.index(attribute)
    ids = [rid for rid in preds.ids if rid in preds.attributes]
    if not ids:
        raise ValueError("prediction file holds no attribute triples")
    return ids, [preds.attributes[rid][col] for rid in ids]


def _truth_column(ids, truth: dict[str, LabelRow], attribute: str) -> list[float]:
    col = ATTRIBUTE_NAMES.index(attribute)
    return [triple[col] for triple in _truth_rows(ids, truth, "attributes")]


# ---------------------------------------------------------------------------
# commands

def _given_fields(cls, args) -> dict:
    """The given flags whose dests name a field of dataclass ``cls``."""
    values = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(cls)}
    return {name: value for name, value in values.items() if value is not None}


def _cmd_gen_synth(args) -> None:
    cfg = dataio.SynthConfig(**_given_fields(dataio.SynthConfig, args))
    records = dataio.gen_synthetic(cfg)
    dataio.write_dataset(args.out, records)
    print(f"wrote {len(records)} records to {args.out}")


def _cmd_train(args) -> None:
    cfg = TrainConfig(**_given_fields(TrainConfig, args))
    records = _load_records(args.data, (cfg.modality,) if cfg.stage == 1 else model.MODALITIES)
    if cfg.stage == 1:
        ckpt = trainer.train_stage1(cfg, records, log_path=args.log)
    else:
        speech_ckpt = Checkpoint.load(args.speech_ckpt)
        text_ckpt = Checkpoint.load(args.text_ckpt)
        ckpt = trainer.train_stage2(cfg, speech_ckpt, text_ckpt, records, log_path=args.log)
    ckpt.save(args.out)
    kind = cfg.modality if cfg.stage == 1 else cfg.fusion
    print(f"stage-{cfg.stage} {kind}/{cfg.task} best dev: {ckpt.metadata['dev_metrics']}")


def _cmd_predict(args) -> None:
    ckpt = Checkpoint.load(args.ckpt)
    records = _load_records(args.data, list(trainer._encoder_cfgs(ckpt.metadata)), args.split)
    preds = trainer.predict(ckpt, records, clamp=not args.no_clamp)
    dataio.write_predictions(args.out, preds)
    print(f"wrote {len(preds.ids)} predictions to {args.out}")


def _cmd_evaluate(args) -> None:
    preds = dataio.read_predictions(args.pred)
    truth = _labels_by_id(args.labels, args.split)
    report = _build_report(preds, truth)
    _write_report(args.out, args.method, report)
    print(metrics.csv_header())
    print(report.csv_row(args.method))


def _cmd_analyze_bins(args) -> None:
    preds = dataio.read_predictions(args.pred)
    truth = _labels_by_id(args.labels, args.split)
    ids, pred_col = _attribute_column(preds, args.attribute)
    truth_col = _truth_column(ids, truth, args.attribute)
    bins = metrics.binned_ccc(pred_col, truth_col, args.edges)
    doc = {
        "attribute": args.attribute,
        "edges": args.edges,
        "bins": [b.to_dict() for b in bins],
        "overall_ccc": metrics.ccc(pred_col, truth_col),
    }
    dataio.write_json(args.out, doc)
    for b in bins:
        value = "insufficient" if b.ccc is None else f"{b.ccc:.4f}"
        print(f"{b.label}: {value} (n={b.count})")


def _cmd_analyze_stats(args) -> None:
    preds = dataio.read_predictions(args.pred)
    ids, pred_col = _attribute_column(preds, args.attribute)
    mean, std = metrics.prediction_stats(pred_col)
    doc = {
        "attribute": args.attribute,
        "prediction": {"mean": mean, "std": std, "formatted": metrics.format_mean_std(mean, std)},
    }
    print(f"prediction: {metrics.format_mean_std(mean, std)}")
    if args.labels:
        truth = _labels_by_id(args.labels, args.split)
        truth_col = _truth_column(ids, truth, args.attribute)
        tmean, tstd = metrics.prediction_stats(truth_col)
        doc["truth"] = {
            "mean": tmean, "std": tstd, "formatted": metrics.format_mean_std(tmean, tstd),
        }
        print(f"truth:      {metrics.format_mean_std(tmean, tstd)}")
    if args.out:
        dataio.write_json(args.out, doc)


def _cmd_analyze_compare(args) -> None:
    preds_a = dataio.read_predictions(args.pred_a)
    preds_b = dataio.read_predictions(args.pred_b)
    truth = _labels_by_id(args.labels, args.split)
    ids, col_a = _attribute_column(preds_a, args.attribute)
    ids_b, col_b = _attribute_column(preds_b, args.attribute)
    if ids != ids_b:
        raise ValueError("compare: the two prediction files cover different ids")
    truth_col = _truth_column(ids, truth, args.attribute)
    emotions = _truth_rows(ids, truth, "emotion")
    report = metrics.compare_models(col_a, col_b, truth_col, emotions)
    doc = report.to_dict()
    doc["attribute"] = args.attribute
    dataio.write_json(args.out, doc)
    share = ", ".join(
        f"{c}: {report.improved_shares[c]:.1%} vs {report.full_shares[c]:.1%}"
        for c in metrics.EMOTION_CODES
    )
    print(f"improved {report.improved_count}/{report.total} samples; shares: {share}")


def _cmd_llm_prompt(args) -> None:
    if args.task == "categorical":
        print(llmproto.build_categorical_prompt(args.transcript))
    else:
        print(llmproto.build_attribute_prompt(args.transcript))


def _cmd_llm_run(args) -> None:
    rows = dataio.csv_rows(args.transcripts, ["id", "transcript"])
    items = [(rid, transcript) for _, (rid, transcript) in rows]
    endpoint = llmproto.LlmEndpointConfig(
        base_url=args.endpoint,
        model=args.model,
        timeout=args.timeout,
        max_retries=args.retries,
        cache_path=args.cache,
        parallelism=args.parallelism,
    )
    report = llmproto.run_llm_eval(endpoint, args.task, items)
    dataio.write_predictions(args.out, report.predictions)
    dataio.write_json(f"{args.out}.failures.json", {
        "failures": report.failures, "failure_count": report.failure_count,
        "cache_hits": report.cache_hits, "requests_made": report.requests_made,
    })
    print(
        f"{len(report.predictions.ids)} parsed, {report.failure_count} failures, "
        f"{report.cache_hits} cache hits, {report.requests_made} requests"
    )


def _cmd_llm_score(args) -> None:
    preds = dataio.read_predictions(args.pred)
    truth = _labels_by_id(args.labels, args.split)
    scored_ids = set(preds.labels) | set(preds.attributes)
    excluded = sorted(rid for rid in truth if rid not in scored_ids)
    report = _build_report(preds, truth)
    extra = {"excluded_count": len(excluded), "excluded_ids": excluded}
    _write_report(args.out, args.method, report, extra=extra)
    print(report.csv_row(args.method))
    print(f"excluded {len(excluded)} unscored ids")


TABLE1_ROWS = (
    ("Cross Attention", "cross_attention", "relu"),
    ("Concat", "concat", "relu"),
    ("Concat (Mish)", "concat", "mish"),
)

TABLE2_ROWS = (
    ("WCE", "wce", "shuffled", None),
    ("Balanced Sample", "focal", "balanced", 0.0),
    ("Focal Loss", "focal", "shuffled", None),
)


def _run_sweep_rows(jobs, run_one, parallel: int) -> list[str]:
    """Row CSV lines in job order; rows fan out to processes when asked.

    Each row is a deterministic run.  What rows share is frozen concat rows,
    reused only for the same encoders and chunk, so a reused row has the
    bytes a fresh encode gives, and process-level parallelism cannot change
    a row's output.
    """
    if parallel > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parallel) as pool:
            rows = list(pool.map(run_one, jobs))
    else:
        rows = [run_one(job) for job in jobs]
    for row in rows:
        print(row)
    return rows


def _sweep_data(args, modalities) -> dict:
    """The dataset, loaded once per sweep, and the scored split's truth."""
    records = _load_records(args.data, modalities)
    eval_records = _select_split(records, args.split)
    return {"records": records, "eval_records": eval_records, "truth": _truth_of(eval_records)}


def _table1_row(job) -> str:
    method, fusion, activation, opts = job
    parts: dict[str, MetricsReport] = {}
    for task in ("categorical", "attributes"):
        cfg = TrainConfig(
            stage=2, task=task, fusion=fusion, activation=activation, seed=opts["seed"],
            batch_size=opts["batch_size"], attn_dim=opts["attn_dim"],
            learning_rate=opts["lr"], epochs=opts["epochs"],
        )
        ckpt = trainer.train_stage2(cfg, opts["speech_ckpt"], opts["text_ckpt"], opts["records"])
        preds = trainer.predict(ckpt, opts["eval_records"])
        parts[task] = _build_report(preds, opts["truth"])
    combined = MetricsReport(
        classification=parts["categorical"].classification,
        attributes=parts["attributes"].attributes,
    )
    return combined.csv_row(method)


def _cmd_sweep_table1(args) -> None:
    opts = _sweep_data(args, model.MODALITIES)
    opts.update({
        "seed": args.seed,
        "speech_ckpt": Checkpoint.load(args.speech_ckpt),
        "text_ckpt": Checkpoint.load(args.text_ckpt),
        "batch_size": args.batch_size, "attn_dim": args.attn_dim,
        "lr": args.lr, "epochs": args.epochs,
    })
    jobs = [(method, fusion, activation, opts) for method, fusion, activation in TABLE1_ROWS]
    with trainer.sharing_frozen_rows():  # its concat runs encode each chunk once
        rows = _run_sweep_rows(jobs, _table1_row, args.parallel)
    _write_table(args.out, rows)


def _table2_row(job) -> str:
    method, loss, sampler, gamma, opts = job
    cfg = TrainConfig(
        stage=1, task="categorical", modality=opts["modality"], loss=loss, sampler=sampler,
        seed=opts["seed"], batch_size=opts["batch_size"],
        focal_gamma=gamma if gamma is not None else opts["focal_gamma"],
        learning_rate=opts["lr"], epochs=opts["epochs"],
    )
    ckpt = trainer.train_stage1(cfg, opts["records"])
    preds = trainer.predict(ckpt, opts["eval_records"])
    return _build_report(preds, opts["truth"]).csv_row(method)


def _cmd_sweep_table2(args) -> None:
    opts = _sweep_data(args, (args.modality,))
    opts.update({
        "seed": args.seed, "modality": args.modality, "batch_size": args.batch_size,
        "focal_gamma": args.focal_gamma, "lr": args.lr, "epochs": args.epochs,
    })
    jobs = [(method, loss, sampler, gamma, opts) for method, loss, sampler, gamma in TABLE2_ROWS]
    _write_table(args.out, _run_sweep_rows(jobs, _table2_row, args.parallel))


def _differing(hashes: dict[str, str]) -> list[str]:
    """The paths in ``hashes`` that are missing or whose bytes changed."""
    return [p for p, digest in hashes.items()
            if not Path(p).exists() or dataio.sha256_file(p) != digest]


def _read_manifest(path) -> dict:
    """A manifest's JSON object, holding the ``argv`` list and the
    ``inputs`` and ``outputs`` maps that ``replay`` reads."""
    try:
        doc = json.load(dataio.read_text(path))
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: line {err.lineno}: not JSON: {err.msg}") from None
    for key, kind, name in (("argv", list, "array"), ("inputs", dict, "object"),
                            ("outputs", dict, "object")):
        if not isinstance(doc, dict) or not isinstance(doc.get(key), kind):
            raise ValueError(f"{path}: manifest needs {key!r} as a JSON {name}")
    return doc


def _cmd_replay(args) -> None:
    doc = _read_manifest(args.manifest)
    changed = _differing(doc["inputs"])
    if changed:
        raise RuntimeError(f"replay inputs missing or changed since the manifest: {changed}")
    with dataio.withholding_writes() as produced:
        code = cli_dispatch(doc["argv"])
    if code != 0:
        raise RuntimeError(f"replayed command exited with code {code}")
    mismatched = [p for p, digest in doc["outputs"].items() if produced.get(p) != digest]
    if mismatched:
        raise RuntimeError(f"replay outputs differ from manifest: {mismatched}")
    print(f"replay reproduced {len(doc['outputs'])} outputs byte-for-byte")


# ---------------------------------------------------------------------------
# parser construction

def _add_common_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--task", required=True, choices=model.TASKS)
    p.add_argument("--loss", choices=trainer.CATEGORICAL_LOSSES + trainer.ATTRIBUTE_LOSSES,
                   help="default: focal for categorical, ccc_loss for attributes")
    p.add_argument("--sampler", default="shuffled", choices=trainer.SAMPLERS)
    p.add_argument("--activation", default="mish", choices=model.ACTIVATIONS)
    p.add_argument("--batch-size", type=int, default=32, help="training batch size (default 32)")
    p.add_argument("--lr", dest="learning_rate", metavar="LR", type=float, default=None,
                   help="learning rate (default 1e-5 stage 1, 5e-6 stage 2)")
    p.add_argument("--epochs", type=int, default=None,
                   help="epoch count (default 20 stage 1, 5 stage 2)")
    p.add_argument("--focal-gamma", type=float, default=2.0)
    p.add_argument("--seed", type=int, required=True, help="mandatory PRNG seed")
    p.add_argument("--log", default=None, help="per-epoch JSONL training log path")
    p.add_argument("--out", required=True, help="output checkpoint path")


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test1", choices=list(dataio.SPLITS))
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--parallel", type=int, default=1, help="process-level fan-out over rows")
    p.add_argument("--out", required=True, help="output CSV")


def build_parser() -> _Parser:
    parser = _Parser(prog="serlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    # dests are the dataio.SynthConfig field names
    p = sub.add_parser("gen-synth", help="generate a synthetic dataset")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--class-counts", type=_int_list, default=None, help="8 comma-separated counts")
    p.add_argument("--speech-dim", type=int, default=None)
    p.add_argument("--text-dim", type=int, default=None)
    p.add_argument("--frame-range", type=_int_list, default=None, help="lo,hi frames per utterance")
    p.add_argument("--separation", type=float, default=None, help="class separation scale")
    p.add_argument("--noise-sigma", type=float, default=None)
    p.add_argument("--anchors", type=_float_rows, default=None,
                   help="8 semicolon-separated a,v,d triples")
    p.add_argument("--split-fractions", type=_float_list, default=None,
                   help="train,dev,test1 fractions")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=_cmd_gen_synth)

    # the train flags' dests and the stage default are trainer.TrainConfig field names
    p = sub.add_parser("train-stage1", help="train one modality encoder + head")
    _add_common_train_flags(p)
    p.add_argument("--modality", required=True, choices=model.MODALITIES)
    p.add_argument("--hidden-dim", type=int, default=16)
    p.add_argument("--out-dim", type=int, default=16)
    p.set_defaults(func=_cmd_train, stage=1)

    p = sub.add_parser("train-stage2", help="train the fusion head on frozen encoders")
    _add_common_train_flags(p)
    p.add_argument("--fusion", default="concat", choices=model.FUSION_KINDS)
    p.add_argument("--attn-dim", type=int, default=16)
    p.add_argument("--speech-ckpt", required=True)
    p.add_argument("--text-ckpt", required=True)
    p.set_defaults(func=_cmd_train, stage=2)

    p = sub.add_parser("predict", help="run inference with a checkpoint")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test1", choices=list(dataio.SPLITS))
    p.add_argument("--no-clamp", type=_switch, nargs="?", const=True, default=False,
                   metavar="true|false", help="keep raw attribute outputs")
    p.add_argument("--out", required=True, help="output predictions CSV")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against labels")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--pred", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--split", default=None, choices=list(dataio.SPLITS))
    p.add_argument("--method", default="model", help="method name for the CSV row")
    p.add_argument("--out", required=True, help="output report prefix (.csv/.json)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("analyze", help="quantitative analysis procedures")
    asub = p.add_subparsers(dest="analysis", required=True)

    b = asub.add_parser("bins", help="CCC within ground-truth value bins")
    b.add_argument("--pred", required=True)
    b.add_argument("--labels", required=True)
    b.add_argument("--split", default=None, choices=list(dataio.SPLITS))
    b.add_argument("--attribute", default="valence", choices=list(ATTRIBUTE_NAMES))
    b.add_argument("--edges", type=_float_list, default="1,3,5,7",
                   help="bin edges; last bin is right-closed")
    b.add_argument("--out", required=True)
    b.set_defaults(func=_cmd_analyze_bins)

    s = asub.add_parser("stats", help="mean and population std of predictions")
    s.add_argument("--pred", required=True)
    s.add_argument("--labels", default=None, help="optional ground truth for side-by-side stats")
    s.add_argument("--split", default=None, choices=list(dataio.SPLITS))
    s.add_argument("--attribute", default="valence", choices=list(ATTRIBUTE_NAMES))
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_analyze_stats)

    c = asub.add_parser("compare", help="per-emotion shares of A-beats-B samples")
    c.add_argument("--pred-a", required=True)
    c.add_argument("--pred-b", required=True)
    c.add_argument("--labels", required=True)
    c.add_argument("--split", default=None, choices=list(dataio.SPLITS))
    c.add_argument("--attribute", default="valence", choices=list(ATTRIBUTE_NAMES))
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_analyze_compare)

    p = sub.add_parser("llm", help="zero-shot LLM protocol")
    lsub = p.add_subparsers(dest="llm_command", required=True)

    lp = lsub.add_parser("prompt", help="print the rendered prompt for a transcript")
    lp.add_argument("--task", required=True, choices=model.TASKS)
    lp.add_argument("--transcript", required=True)
    lp.set_defaults(func=_cmd_llm_prompt)

    lr = lsub.add_parser("run", help="query an endpoint for every transcript")
    lr.add_argument("--config", help="flat key = value config file")
    lr.add_argument("--task", required=True, choices=model.TASKS)
    lr.add_argument("--transcripts", required=True, help="CSV with header id,transcript")
    lr.add_argument("--endpoint", required=True, help="base URL of the chat-completion server")
    lr.add_argument("--model", required=True)
    lr.add_argument("--cache", default=None, help="JSONL reply cache path")
    lr.add_argument("--timeout", type=float, default=30.0)
    lr.add_argument("--retries", type=int, default=2)
    lr.add_argument("--parallelism", type=int, default=4)
    lr.add_argument("--out", required=True, help="output predictions CSV")
    lr.set_defaults(func=_cmd_llm_run)

    ls = lsub.add_parser("score", help="evaluate LLM predictions, disclosing exclusions")
    ls.add_argument("--pred", required=True)
    ls.add_argument("--labels", required=True)
    ls.add_argument("--split", default=None, choices=list(dataio.SPLITS))
    ls.add_argument("--method", default="llm", help="method name for the CSV row")
    ls.add_argument("--out", required=True)
    ls.set_defaults(func=_cmd_llm_score)

    p = sub.add_parser("sweep", help="run an experiment grid")
    ssub = p.add_subparsers(dest="sweep_kind", required=True)

    t1 = ssub.add_parser("table1", help="fusion-strategy grid")
    _add_sweep_flags(t1)
    t1.add_argument("--speech-ckpt", required=True)
    t1.add_argument("--text-ckpt", required=True)
    t1.add_argument("--attn-dim", type=int, default=16)
    t1.set_defaults(func=_cmd_sweep_table1)

    t2 = ssub.add_parser("table2", help="balancing-scheme grid")
    _add_sweep_flags(t2)
    t2.add_argument("--modality", default="speech", choices=model.MODALITIES)
    t2.add_argument("--focal-gamma", type=float, default=2.0)
    t2.set_defaults(func=_cmd_sweep_table2)

    p = sub.add_parser("replay", help="re-run a manifest and verify outputs reproduce")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=_cmd_replay)

    return parser


@functools.cache
def _parser() -> _Parser:
    """``build_parser()``, built once per process: parsing leaves it unchanged."""
    return build_parser()


def _check_out_dirs(args) -> None:
    """The directory of each ``--out``, ``--log`` and ``--cache`` path
    exists, checked before the command runs."""
    if args.command == "gen-synth":  # it makes its --out directory
        return
    for flag in ("out", "log", "cache"):
        path = getattr(args, flag, None)
        if path and not Path(path).parent.is_dir():
            parent = str(Path(path).parent)
            raise UsageError(f"--{flag} {path}: directory {parent!r} does not exist")


def cli_dispatch(argv: list[str]) -> int:
    """Run one command.  Its outputs land together once it succeeds, with
    its manifest last; if it fails, none lands and earlier files stay."""
    try:
        with dataio.recording_reads(), dataio.staging_writes():
            args = _parser().parse_args(_with_config(list(argv)))
            _check_out_dirs(args)
            args.func(args)
            if dataio.staged_writes():
                write_manifest(args, list(argv))
        return 0
    except (UsageError, FileNotFoundError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # runtime failure
        print(f"failure: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

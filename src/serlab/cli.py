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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


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
    if split is None:
        return records
    return _select_split(records, split, Path(data_dir) / "labels.csv")


def _select_split(records, split: str, labels_path):
    """The records of ``split``, which the labels at ``labels_path`` must hold."""
    selected = [r for r in records if r.split == split]
    if not selected:
        raise ValueError(f"{labels_path}: no records in split {split!r}")
    return selected


def _labels_by_id(labels_path, split: str | None) -> dict[str, LabelRow]:
    rows = dataio.read_labels(labels_path)
    if split is not None:
        rows = [r for r in rows if r.split == split]
    return {r.id: r for r in rows}


def _truth_rows(ids, truth: dict[str, LabelRow], need: str, labels_path) -> list:
    """The ``need`` field (``emotion`` or ``attributes``) of each id's label
    row or record, ``truth`` read from ``labels_path``."""
    out = []
    for rid in ids:
        row = truth.get(rid)
        if row is None:
            raise ValueError(f"{labels_path}: prediction id {rid!r} not found in labels")
        if getattr(row, need) is None:
            raise ValueError(f"record {rid!r} has no {need} label")
        out.append(getattr(row, need))
    return out


def _build_report(preds: PredictionSet, truth: dict[str, LabelRow], labels_path,
                  pred_path=None) -> MetricsReport:
    """The metrics of ``preds``, read from ``pred_path`` (a sweep's are
    never empty), against ``truth``, read from ``labels_path``."""
    classification = None
    attributes = None
    if preds.labels:
        ids = [rid for rid in preds.ids if rid in preds.labels]
        classification = metrics.classification_metrics(
            [preds.labels[rid] for rid in ids], _truth_rows(ids, truth, "emotion", labels_path)
        )
    if preds.attributes:
        ids = [rid for rid in preds.ids if rid in preds.attributes]
        attributes = metrics.attribute_metrics(
            np.array([preds.attributes[rid] for rid in ids]),
            np.array(_truth_rows(ids, truth, "attributes", labels_path)),
        )
    if classification is None and attributes is None:
        raise ValueError(f"{pred_path}: prediction file holds neither labels nor attributes")
    return MetricsReport(classification=classification, attributes=attributes)


def _write_table(path, rows: list[str]) -> None:
    """A metrics CSV: the header line, then one line per row."""
    with dataio.atomic_write(path) as f:
        f.write("\n".join([metrics.csv_header()] + rows) + "\n")


def _write_report(out_prefix, method: str, report: MetricsReport, extra: dict | None = None):
    """``<out_prefix>.csv`` and ``<out_prefix>.json``, the prefix kept as typed."""
    _write_table(Path(f"{out_prefix}.csv"), [report.csv_row(method)])
    doc = report.to_dict()
    doc["method"] = method
    if extra:
        doc.update(extra)
    dataio.write_json(Path(f"{out_prefix}.json"), doc)


def _attribute_column(preds: PredictionSet, attribute: str) -> tuple[list[str], list[float]]:
    col = ATTRIBUTE_NAMES.index(attribute)
    ids = [rid for rid in preds.ids if rid in preds.attributes]
    if not ids:
        raise ValueError("prediction file holds no attribute triples")
    return ids, [preds.attributes[rid][col] for rid in ids]


def _truth_column(ids, truth: dict[str, LabelRow], attribute: str, labels_path) -> list[float]:
    col = ATTRIBUTE_NAMES.index(attribute)
    return [triple[col] for triple in _truth_rows(ids, truth, "attributes", labels_path)]


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
    report = _build_report(preds, truth, args.labels, args.pred)
    _write_report(args.out, args.method, report)
    print(metrics.csv_header())
    print(report.csv_row(args.method))


def _cmd_analyze_bins(args) -> None:
    preds = dataio.read_predictions(args.pred)
    truth = _labels_by_id(args.labels, args.split)
    ids, pred_col = _attribute_column(preds, args.attribute)
    truth_col = _truth_column(ids, truth, args.attribute, args.labels)
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
        truth_col = _truth_column(ids, truth, args.attribute, args.labels)
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
    truth_col = _truth_column(ids, truth, args.attribute, args.labels)
    emotions = _truth_rows(ids, truth, "emotion", args.labels)
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
    report = _build_report(preds, truth, args.labels, args.pred)
    extra = {"excluded_count": len(excluded), "excluded_ids": excluded}
    _write_report(args.out, args.method, report, extra=extra)
    print(report.csv_row(args.method))
    print(f"excluded {len(excluded)} unscored ids")


# a row: its method and the TrainConfig fields it sets over the sweep's flags
TABLE1_ROWS = (
    ("Cross Attention", {"fusion": "cross_attention", "activation": "relu"}),
    ("Concat", {"fusion": "concat", "activation": "relu"}),
    ("Concat (Mish)", {"fusion": "concat", "activation": "mish"}),
)

TABLE2_ROWS = (
    ("WCE", {"loss": "wce"}),
    ("Balanced Sample", {"loss": "focal", "sampler": "balanced", "focal_gamma": 0.0}),
    ("Focal Loss", {"loss": "focal"}),
)


def _sweep_configs(args, table, stage: int, tasks) -> list:
    """Each row's method and its TrainConfigs, one per task.  A sweep builds
    them all before it reads a file, so a bad config fails before any run."""
    given = _given_fields(TrainConfig, args)
    return [(method, [TrainConfig(**{**given, **fields, "stage": stage, "task": task})
                      for task in tasks])
            for method, fields in table]


def _sweep_row(job) -> str:
    """A row's CSV line: each config trained (stage 2 on the sources, the
    speech and text stage-1 checkpoints), its model scored on the scored
    split, and the categorical and attribute cells merged."""
    method, cfgs, data = job
    reports = {}
    for cfg in cfgs:
        if cfg.stage == 1:
            ckpt = trainer.train_stage1(cfg, data["records"])
        else:
            ckpt = trainer.train_stage2(cfg, *data["sources"], data["records"])
        reports[cfg.task] = _build_report(trainer.predict(ckpt, data["scored"]), data["truth"],
                                        data["labels"])
    empty = MetricsReport()
    return MetricsReport(
        classification=reports.get("categorical", empty).classification,
        attributes=reports.get("attributes", empty).attributes,
    ).csv_row(method)


def _run_sweep(args, rows, records, sources=()) -> None:
    """Run the rows, in order, and write the table; rows fan out to at most
    one process each when ``--parallel`` asks.

    Each row is a deterministic run.  What rows share is frozen concat rows,
    reused only for the same encoders and chunk, so a reused row has the
    bytes a fresh encode gives, and process-level parallelism cannot change
    a row's output.
    """
    labels = Path(args.data) / "labels.csv"
    scored = _select_split(records, args.split, labels)
    data = {"records": records, "sources": sources, "scored": scored,
            "truth": {r.id: r for r in scored}, "labels": labels}
    jobs = [(method, cfgs, data) for method, cfgs in rows]
    if args.parallel > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(args.parallel, len(jobs))) as pool:
            lines = list(pool.map(_sweep_row, jobs))
    else:
        lines = [_sweep_row(job) for job in jobs]
    for line in lines:
        print(line)
    _write_table(args.out, lines)


def _cmd_sweep_table1(args) -> None:
    rows = _sweep_configs(args, TABLE1_ROWS, stage=2, tasks=model.TASKS)
    records = _load_records(args.data, model.MODALITIES)
    sources = (Checkpoint.load(args.speech_ckpt), Checkpoint.load(args.text_ckpt))
    with trainer.sharing_frozen_rows():  # its concat runs encode each chunk once
        _run_sweep(args, rows, records, sources)


def _cmd_sweep_table2(args) -> None:
    rows = _sweep_configs(args, TABLE2_ROWS, stage=1, tasks=("categorical",))
    _run_sweep(args, rows, _load_records(args.data, (args.modality,)))


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
    p.add_argument("--lr", dest="learning_rate", metavar="LR", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--parallel", type=_positive_int, default=1,
                   help="process-level fan-out over rows, at most one process per row")
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
    its manifest last; if it fails, or an output is a file it parsed, none
    lands and earlier files stay."""
    try:
        with dataio.recording_reads(), dataio.staging_writes():
            args = _parser().parse_args(_with_config(list(argv)))
            _check_out_dirs(args)
            args.func(args)
            read = {Path(p).resolve() for p in dataio.recorded_reads()}
            replaced = next((p for p in dataio.staged_writes() if Path(p).resolve() in read), None)
            if replaced is not None:  # raising here lands none of the outputs
                raise UsageError(f"{replaced}: output would overwrite an input the command read")
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

"""Command-line surface binding the experiment grid together.

Subcommands: gen-synth, train-stage1, train-stage2, predict, evaluate,
analyze (bins|stats|compare), llm (prompt|run|score), sweep (table1|table2),
and replay.  Every artifact-producing command writes a run manifest with
input/output hashes; ``replay`` re-executes a manifest and verifies the
outputs reproduce byte-for-byte.

Exit codes: 0 success, 1 validation error, 2 runtime failure.

Config files are flat ``key = value`` lines (``#`` comments); command-line
flags override file values.  ``--seed`` is mandatory for train commands.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import dataio, llmproto, metrics, trainer
from .dataio import LabelRow, PredictionSet
from .metrics import ATTRIBUTE_NAMES, MetricsReport
from .trainer import Checkpoint, TrainConfig


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit code 1
        raise UsageError(message)


# ---------------------------------------------------------------------------
# config files

def load_config_file(path) -> dict[str, str]:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"--config: file not found: {path}")
    values: dict[str, str] = {}
    for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _merge_config(args: argparse.Namespace, argv: list[str]) -> None:
    """Fill namespace values from the config file; explicit flags win."""
    if getattr(args, "config", None) is None:
        return
    for key, value in load_config_file(args.config).items():
        if not hasattr(args, key):
            raise UsageError(f"--config: unknown key {key!r}")
        if f"--{key.replace('_', '-')}" in argv:
            continue
        current = getattr(args, key)
        if isinstance(current, bool):
            if value.lower() not in ("true", "false"):
                raise UsageError(f"--config: key {key!r} expects true/false, got {value!r}")
            value = value.lower() == "true"
        setattr(args, key, value)


def _check_required(args: argparse.Namespace) -> None:
    for dest in getattr(args, "_required", ()):
        if getattr(args, dest, None) is None:
            raise UsageError(f"missing required flag --{dest.replace('_', '-')}")


# ---------------------------------------------------------------------------
# manifests

def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(
    manifest_path, command: str, argv: list[str], inputs: list, outputs: list, seed=None
) -> None:
    doc = {
        "command": command,
        "argv": list(argv),
        "seed": seed,
        "inputs": {str(p): _sha256_file(p) for p in inputs if Path(p).exists()},
        "outputs": {str(p): _sha256_file(p) for p in outputs},
    }
    Path(manifest_path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _dataset_paths(data_dir) -> list[Path]:
    d = Path(data_dir)
    return [p for p in (d / "speech.femb", d / "text.femb", d / "labels.csv") if p.exists()]


# ---------------------------------------------------------------------------
# small helpers

def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise UsageError(f"{flag}: expected comma-separated integers, got {text!r}") from None


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise UsageError(f"{flag}: expected comma-separated numbers, got {text!r}") from None


def _require_seed(args) -> int:
    if args.seed is None:
        raise UsageError("--seed is mandatory for train commands")
    return int(args.seed)


def _load_records(data_dir, split: str | None = None):
    records = dataio.load_dataset(data_dir)
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


def _paired_classification(preds: PredictionSet, truth: dict[str, LabelRow]):
    pred_codes, truth_codes = [], []
    for rid in preds.ids:
        if rid not in preds.labels:
            continue
        row = truth.get(rid)
        if row is None:
            raise ValueError(f"prediction id {rid!r} not found in labels")
        if row.emotion is None:
            raise ValueError(f"record {rid!r} has no emotion label")
        pred_codes.append(preds.labels[rid])
        truth_codes.append(row.emotion)
    return pred_codes, truth_codes


def _paired_attributes(preds: PredictionSet, truth: dict[str, LabelRow]):
    p, t = [], []
    for rid in preds.ids:
        if rid not in preds.attributes:
            continue
        row = truth.get(rid)
        if row is None:
            raise ValueError(f"prediction id {rid!r} not found in labels")
        if row.attributes is None:
            raise ValueError(f"record {rid!r} has no attribute labels")
        p.append(preds.attributes[rid])
        t.append(row.attributes)
    return np.array(p), np.array(t)


def _build_report(preds: PredictionSet, truth: dict[str, LabelRow]) -> MetricsReport:
    classification = None
    attributes = None
    if preds.labels:
        pred_codes, truth_codes = _paired_classification(preds, truth)
        classification = metrics.classification_metrics(pred_codes, truth_codes)
    if preds.attributes:
        p, t = _paired_attributes(preds, truth)
        attributes = metrics.attribute_metrics(p, t)
    if classification is None and attributes is None:
        raise ValueError("prediction file holds neither labels nor attributes")
    return MetricsReport(classification=classification, attributes=attributes)


def _write_report(out_prefix, method: str, report: MetricsReport, extra: dict | None = None):
    out = Path(out_prefix)
    csv_path = out.with_suffix(".csv")
    json_path = out.with_suffix(".json")
    csv_path.write_text(
        metrics.csv_header() + "\n" + report.csv_row(method) + "\n", encoding="utf-8"
    )
    doc = report.to_dict()
    doc["method"] = method
    if extra:
        doc.update(extra)
    json_path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return [csv_path, json_path]


def _attribute_column(preds: PredictionSet, attribute: str) -> tuple[list[str], list[float]]:
    if attribute not in ATTRIBUTE_NAMES:
        raise UsageError(f"--attribute: unknown attribute {attribute!r}")
    col = ATTRIBUTE_NAMES.index(attribute)
    ids = [rid for rid in preds.ids if rid in preds.attributes]
    if not ids:
        raise ValueError("prediction file holds no attribute triples")
    return ids, [preds.attributes[rid][col] for rid in ids]


def _truth_column(ids, truth: dict[str, LabelRow], attribute: str) -> list[float]:
    col = ATTRIBUTE_NAMES.index(attribute)
    out = []
    for rid in ids:
        row = truth.get(rid)
        if row is None:
            raise ValueError(f"prediction id {rid!r} not found in labels")
        if row.attributes is None:
            raise ValueError(f"record {rid!r} has no attribute labels")
        out.append(row.attributes[col])
    return out


# ---------------------------------------------------------------------------
# commands

def _cmd_gen_synth(args, argv) -> int:
    kwargs = {}
    if args.class_counts is not None:
        kwargs["class_counts"] = tuple(_parse_int_list(args.class_counts, "--class-counts"))
    if args.speech_dim is not None:
        kwargs["speech_dim"] = int(args.speech_dim)
    if args.text_dim is not None:
        kwargs["text_dim"] = int(args.text_dim)
    if args.frame_range is not None:
        lo, hi = _parse_int_list(args.frame_range, "--frame-range")
        kwargs["frame_range"] = (lo, hi)
    if args.separation is not None:
        kwargs["separation"] = float(args.separation)
    if args.noise_sigma is not None:
        kwargs["noise_sigma"] = float(args.noise_sigma)
    if args.split_fractions is not None:
        fr = _parse_float_list(args.split_fractions, "--split-fractions")
        kwargs["split_fractions"] = tuple(fr)
    if args.anchors is not None:
        rows = [_parse_float_list(group, "--anchors") for group in args.anchors.split(";")]
        kwargs["anchors"] = np.array(rows)
    if args.seed is not None:
        kwargs["seed"] = int(args.seed)
    cfg = dataio.SynthConfig(**kwargs)
    records = dataio.gen_synthetic(cfg)
    paths = dataio.write_dataset(args.out, records)
    inputs = [args.config] if args.config else []
    write_manifest(
        Path(args.out) / "manifest.json", "gen-synth", argv, inputs, list(paths.values()),
        seed=cfg.seed,
    )
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _train_config_from_args(args, stage: int) -> TrainConfig:
    kwargs = dict(
        stage=stage,
        task=args.task,
        sampler=args.sampler,
        activation=args.activation,
        batch_size=int(args.batch_size),
        seed=_require_seed(args),
        hidden_dim=int(args.hidden_dim),
        out_dim=int(args.out_dim),
        focal_gamma=float(args.focal_gamma),
    )
    if args.loss is not None:
        kwargs["loss"] = args.loss
    if args.lr is not None:
        kwargs["learning_rate"] = float(args.lr)
    if args.epochs is not None:
        kwargs["epochs"] = int(args.epochs)
    if stage == 1:
        kwargs["modality"] = args.modality
    else:
        kwargs["fusion"] = args.fusion
        kwargs["attn_dim"] = int(args.attn_dim)
    return TrainConfig(**kwargs)


def _cmd_train_stage1(args, argv) -> int:
    cfg = _train_config_from_args(args, stage=1)
    records = _load_records(args.data)
    ckpt = trainer.train_stage1(cfg, records, log_path=args.log)
    ckpt.save(args.out)
    outputs = [args.out] + ([args.log] if args.log else [])
    write_manifest(
        str(args.out) + ".manifest.json", "train-stage1", argv,
        _dataset_paths(args.data), outputs, seed=cfg.seed,
    )
    print(f"stage-1 {cfg.modality}/{cfg.task} best dev: {ckpt.metadata['dev_metrics']}")
    return 0


def _cmd_train_stage2(args, argv) -> int:
    cfg = _train_config_from_args(args, stage=2)
    records = _load_records(args.data)
    speech_ckpt = Checkpoint.load(args.speech_ckpt)
    text_ckpt = Checkpoint.load(args.text_ckpt)
    ckpt = trainer.train_stage2(cfg, speech_ckpt, text_ckpt, records, log_path=args.log)
    ckpt.save(args.out)
    inputs = _dataset_paths(args.data) + [args.speech_ckpt, args.text_ckpt]
    outputs = [args.out] + ([args.log] if args.log else [])
    write_manifest(
        str(args.out) + ".manifest.json", "train-stage2", argv, inputs, outputs, seed=cfg.seed
    )
    print(f"stage-2 {cfg.fusion}/{cfg.task} best dev: {ckpt.metadata['dev_metrics']}")
    return 0


def _cmd_predict(args, argv) -> int:
    ckpt = Checkpoint.load(args.ckpt)
    records = _load_records(args.data, args.split)
    preds = trainer.predict(ckpt, records, clamp=not args.no_clamp)
    dataio.write_predictions(args.out, preds)
    write_manifest(
        str(args.out) + ".manifest.json", "predict", argv,
        _dataset_paths(args.data) + [args.ckpt], [args.out],
    )
    print(f"wrote {len(preds.ids)} predictions to {args.out}")
    return 0


def _cmd_evaluate(args, argv) -> int:
    preds = dataio.read_predictions(args.pred)
    truth = _labels_by_id(args.labels, args.split)
    report = _build_report(preds, truth)
    outputs = _write_report(args.out, args.method, report)
    write_manifest(
        str(args.out) + ".manifest.json", "evaluate", argv, [args.pred, args.labels], outputs
    )
    print(metrics.csv_header())
    print(report.csv_row(args.method))
    return 0


def _cmd_analyze_bins(args, argv) -> int:
    preds = dataio.read_predictions(args.pred)
    truth = _labels_by_id(args.labels, args.split)
    ids, pred_col = _attribute_column(preds, args.attribute)
    truth_col = _truth_column(ids, truth, args.attribute)
    edges = _parse_float_list(args.edges, "--edges")
    bins = metrics.binned_ccc(pred_col, truth_col, edges)
    doc = {
        "attribute": args.attribute,
        "edges": edges,
        "bins": [b.to_dict() for b in bins],
        "overall_ccc": metrics.ccc(pred_col, truth_col),
    }
    Path(args.out).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    write_manifest(
        str(args.out) + ".manifest.json", "analyze bins", argv, [args.pred, args.labels], [args.out]
    )
    for b in bins:
        value = "insufficient" if b.ccc is None else f"{b.ccc:.4f}"
        print(f"{b.label}: {value} (n={b.count})")
    return 0


def _cmd_analyze_stats(args, argv) -> int:
    preds = dataio.read_predictions(args.pred)
    ids, pred_col = _attribute_column(preds, args.attribute)
    mean, std = metrics.prediction_stats(pred_col)
    doc = {
        "attribute": args.attribute,
        "prediction": {"mean": mean, "std": std, "formatted": metrics.format_mean_std(mean, std)},
    }
    print(f"prediction: {metrics.format_mean_std(mean, std)}")
    inputs = [args.pred]
    if args.labels:
        truth = _labels_by_id(args.labels, args.split)
        truth_col = _truth_column(ids, truth, args.attribute)
        tmean, tstd = metrics.prediction_stats(truth_col)
        doc["truth"] = {
            "mean": tmean, "std": tstd, "formatted": metrics.format_mean_std(tmean, tstd),
        }
        print(f"truth:      {metrics.format_mean_std(tmean, tstd)}")
        inputs.append(args.labels)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        write_manifest(str(args.out) + ".manifest.json", "analyze stats", argv, inputs, [args.out])
    return 0


def _cmd_analyze_compare(args, argv) -> int:
    preds_a = dataio.read_predictions(args.pred_a)
    preds_b = dataio.read_predictions(args.pred_b)
    truth = _labels_by_id(args.labels, args.split)
    ids, col_a = _attribute_column(preds_a, args.attribute)
    ids_b, col_b = _attribute_column(preds_b, args.attribute)
    if ids != ids_b:
        raise ValueError("compare: the two prediction files cover different ids")
    truth_col = _truth_column(ids, truth, args.attribute)
    emotions = []
    for rid in ids:
        row = truth[rid]
        if row.emotion is None:
            raise ValueError(f"record {rid!r} has no emotion label for the comparison")
        emotions.append(row.emotion)
    report = metrics.compare_models(col_a, col_b, truth_col, emotions)
    doc = report.to_dict()
    doc["attribute"] = args.attribute
    Path(args.out).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    write_manifest(
        str(args.out) + ".manifest.json", "analyze compare", argv,
        [args.pred_a, args.pred_b, args.labels], [args.out],
    )
    share = ", ".join(
        f"{c}: {report.improved_shares[c]:.1%} vs {report.full_shares[c]:.1%}"
        for c in metrics.EMOTION_CODES
    )
    print(f"improved {report.improved_count}/{report.total} samples; shares: {share}")
    return 0


def _read_transcripts(path) -> list[tuple[str, str]]:
    import csv as csv_mod

    items = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv_mod.reader(f)
        header = next(reader, None)
        if header != ["id", "transcript"]:
            raise ValueError(f"{path}: expected header id,transcript, got {header!r}")
        for lineno, cells in enumerate(reader, start=2):
            if len(cells) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 2 fields")
            items.append((cells[0], cells[1]))
    return items


def _cmd_llm_prompt(args, argv) -> int:
    if args.task == "categorical":
        print(llmproto.build_categorical_prompt(args.transcript))
    else:
        print(llmproto.build_attribute_prompt(args.transcript))
    return 0


def _cmd_llm_run(args, argv) -> int:
    items = _read_transcripts(args.transcripts)
    endpoint = llmproto.LlmEndpointConfig(
        base_url=args.endpoint,
        model=args.model,
        timeout=float(args.timeout),
        max_retries=int(args.retries),
        cache_path=args.cache,
        parallelism=int(args.parallelism),
    )
    report = llmproto.run_llm_eval(endpoint, args.task, items)
    dataio.write_predictions(args.out, report.predictions)
    failures_path = Path(str(args.out) + ".failures.json")
    failures_path.write_text(
        json.dumps(
            {"failures": report.failures, "failure_count": report.failure_count,
             "cache_hits": report.cache_hits, "requests_made": report.requests_made},
            sort_keys=True, indent=2,
        ) + "\n",
        encoding="utf-8",
    )
    write_manifest(
        str(args.out) + ".manifest.json", "llm run", argv, [args.transcripts],
        [args.out, failures_path],
    )
    print(
        f"{len(report.predictions.ids)} parsed, {report.failure_count} failures, "
        f"{report.cache_hits} cache hits, {report.requests_made} requests"
    )
    return 0


def _cmd_llm_score(args, argv) -> int:
    preds = dataio.read_predictions(args.pred)
    truth = _labels_by_id(args.labels, args.split)
    scored_ids = set(preds.labels) | set(preds.attributes)
    excluded = sorted(rid for rid in truth if rid not in scored_ids)
    report = _build_report(preds, truth)
    extra = {"excluded_count": len(excluded), "excluded_ids": excluded}
    outputs = _write_report(args.out, args.method, report, extra=extra)
    write_manifest(
        str(args.out) + ".manifest.json", "llm score", argv, [args.pred, args.labels], outputs
    )
    print(report.csv_row(args.method))
    print(f"excluded {len(excluded)} unscored ids")
    return 0


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

    Each row is an independent deterministic run sharing nothing mutable,
    so process-level parallelism cannot change its output.
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


def _sweep_data(args) -> dict:
    """The dataset, loaded once per sweep, and the scored split's truth."""
    records = _load_records(args.data)
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
        ckpt = trainer.train_stage2(
            cfg, opts["speech_ckpt"], opts["text_ckpt"], opts["records"], cache=opts["cache"]
        )
        preds = trainer.predict(ckpt, opts["eval_records"], cache=opts["cache"])
        parts[task] = _build_report(preds, opts["truth"])
    combined = MetricsReport(
        classification=parts["categorical"].classification,
        attributes=parts["attributes"].attributes,
    )
    return combined.csv_row(method)


def _cmd_sweep_table1(args, argv) -> int:
    seed = _require_seed(args)
    opts = _sweep_data(args)
    speech_ckpt = Checkpoint.load(args.speech_ckpt)
    text_ckpt = Checkpoint.load(args.text_ckpt)
    # every row trains on train + dev and scores the split: encode those once
    used = [r for r in opts["records"] if r.split in ("train", "dev", args.split)]
    opts.update({
        "seed": seed, "speech_ckpt": speech_ckpt, "text_ckpt": text_ckpt,
        "cache": trainer.encode_frozen(speech_ckpt, text_ckpt, used),
        "batch_size": int(args.batch_size), "attn_dim": int(args.attn_dim),
        "lr": float(args.lr) if args.lr is not None else None,
        "epochs": int(args.epochs) if args.epochs is not None else None,
    })
    jobs = [(method, fusion, activation, opts) for method, fusion, activation in TABLE1_ROWS]
    rows = _run_sweep_rows(jobs, _table1_row, int(args.parallel))
    Path(args.out).write_text("\n".join([metrics.csv_header()] + rows) + "\n", encoding="utf-8")
    inputs = _dataset_paths(args.data) + [args.speech_ckpt, args.text_ckpt]
    write_manifest(str(args.out) + ".manifest.json", "sweep table1", argv, inputs, [args.out], seed=seed)
    return 0


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


def _cmd_sweep_table2(args, argv) -> int:
    seed = _require_seed(args)
    opts = _sweep_data(args)
    opts.update({
        "seed": seed, "modality": args.modality, "batch_size": int(args.batch_size),
        "focal_gamma": float(args.focal_gamma),
        "lr": float(args.lr) if args.lr is not None else None,
        "epochs": int(args.epochs) if args.epochs is not None else None,
    })
    jobs = [(method, loss, sampler, gamma, opts) for method, loss, sampler, gamma in TABLE2_ROWS]
    rows = _run_sweep_rows(jobs, _table2_row, int(args.parallel))
    Path(args.out).write_text("\n".join([metrics.csv_header()] + rows) + "\n", encoding="utf-8")
    write_manifest(
        str(args.out) + ".manifest.json", "sweep table2", argv, _dataset_paths(args.data),
        [args.out], seed=seed,
    )
    return 0


def _cmd_replay(args, argv) -> int:
    doc = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    stored_argv = doc["argv"]
    code = cli_dispatch(stored_argv)
    if code != 0:
        raise RuntimeError(f"replayed command exited with code {code}")
    mismatched = []
    for path, digest in doc["outputs"].items():
        if not Path(path).exists() or _sha256_file(path) != digest:
            mismatched.append(path)
    if mismatched:
        raise RuntimeError(f"replay outputs differ from manifest: {mismatched}")
    print(f"replay reproduced {len(doc['outputs'])} outputs byte-for-byte")
    return 0


# ---------------------------------------------------------------------------
# parser construction

def _add_common_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--task", choices=["categorical", "attributes"])
    p.add_argument("--loss", choices=["wce", "focal", "ccc_loss", "mse"],
                   help="default: focal for categorical, ccc_loss for attributes")
    p.add_argument("--sampler", default="shuffled", choices=["shuffled", "balanced"])
    p.add_argument("--activation", default="mish", choices=["mish", "relu"])
    p.add_argument("--batch-size", default=32, help="training batch size (default 32)")
    p.add_argument("--lr", default=None, help="learning rate (default 1e-5 stage 1, 5e-6 stage 2)")
    p.add_argument("--epochs", default=None, help="epoch count (default 20 stage 1, 5 stage 2)")
    p.add_argument("--hidden-dim", default=16)
    p.add_argument("--out-dim", default=16)
    p.add_argument("--focal-gamma", default=2.0)
    p.add_argument("--seed", default=None, help="mandatory PRNG seed")
    p.add_argument("--log", default=None, help="per-epoch JSONL training log path")
    p.add_argument("--out", help="output checkpoint path")


def build_parser() -> _Parser:
    parser = _Parser(prog="serlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic dataset")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--class-counts", default=None, help="8 comma-separated counts")
    p.add_argument("--speech-dim", default=None)
    p.add_argument("--text-dim", default=None)
    p.add_argument("--frame-range", default=None, help="lo,hi frames per utterance")
    p.add_argument("--separation", default=None, help="class separation scale")
    p.add_argument("--noise-sigma", default=None)
    p.add_argument("--anchors", default=None, help="8 semicolon-separated a,v,d triples")
    p.add_argument("--split-fractions", default=None, help="train,dev,test1 fractions")
    p.add_argument("--seed", default=None)
    p.add_argument("--out", help="output dataset directory")
    p.set_defaults(func=_cmd_gen_synth, _required=["out"])

    p = sub.add_parser("train-stage1", help="train one modality encoder + head")
    _add_common_train_flags(p)
    p.add_argument("--modality", choices=["speech", "text"])
    p.set_defaults(func=_cmd_train_stage1, _required=["data", "task", "modality", "out"])

    p = sub.add_parser("train-stage2", help="train the fusion head on frozen encoders")
    _add_common_train_flags(p)
    p.add_argument("--fusion", default="concat", choices=["concat", "cross_attention"])
    p.add_argument("--attn-dim", default=16)
    p.add_argument("--speech-ckpt")
    p.add_argument("--text-ckpt")
    p.set_defaults(
        func=_cmd_train_stage2,
        _required=["data", "task", "speech_ckpt", "text_ckpt", "out"],
    )

    p = sub.add_parser("predict", help="run inference with a checkpoint")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--ckpt")
    p.add_argument("--data")
    p.add_argument("--split", default="test1", choices=list(dataio.SPLITS))
    p.add_argument("--no-clamp", action="store_true", help="keep raw attribute outputs")
    p.add_argument("--out", help="output predictions CSV")
    p.set_defaults(func=_cmd_predict, _required=["ckpt", "data", "out"])

    p = sub.add_parser("evaluate", help="score predictions against labels")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--pred")
    p.add_argument("--labels")
    p.add_argument("--split", default=None, choices=list(dataio.SPLITS))
    p.add_argument("--method", default="model", help="method name for the CSV row")
    p.add_argument("--out", help="output report prefix (.csv/.json)")
    p.set_defaults(func=_cmd_evaluate, _required=["pred", "labels", "out"])

    p = sub.add_parser("analyze", help="quantitative analysis procedures")
    asub = p.add_subparsers(dest="analysis", required=True)

    b = asub.add_parser("bins", help="CCC within ground-truth value bins")
    b.add_argument("--pred")
    b.add_argument("--labels")
    b.add_argument("--split", default=None, choices=list(dataio.SPLITS))
    b.add_argument("--attribute", default="valence", choices=list(ATTRIBUTE_NAMES))
    b.add_argument("--edges", default="1,3,5,7", help="bin edges; last bin is right-closed")
    b.add_argument("--out")
    b.set_defaults(func=_cmd_analyze_bins, _required=["pred", "labels", "out"])

    s = asub.add_parser("stats", help="mean and population std of predictions")
    s.add_argument("--pred")
    s.add_argument("--labels", default=None, help="optional ground truth for side-by-side stats")
    s.add_argument("--split", default=None, choices=list(dataio.SPLITS))
    s.add_argument("--attribute", default="valence", choices=list(ATTRIBUTE_NAMES))
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_analyze_stats, _required=["pred"])

    c = asub.add_parser("compare", help="per-emotion shares of A-beats-B samples")
    c.add_argument("--pred-a")
    c.add_argument("--pred-b")
    c.add_argument("--labels")
    c.add_argument("--split", default=None, choices=list(dataio.SPLITS))
    c.add_argument("--attribute", default="valence", choices=list(ATTRIBUTE_NAMES))
    c.add_argument("--out")
    c.set_defaults(func=_cmd_analyze_compare, _required=["pred_a", "pred_b", "labels", "out"])

    p = sub.add_parser("llm", help="zero-shot LLM protocol")
    lsub = p.add_subparsers(dest="llm_command", required=True)

    lp = lsub.add_parser("prompt", help="print the rendered prompt for a transcript")
    lp.add_argument("--task", choices=["categorical", "attributes"])
    lp.add_argument("--transcript")
    lp.set_defaults(func=_cmd_llm_prompt, _required=["task", "transcript"])

    lr = lsub.add_parser("run", help="query an endpoint for every transcript")
    lr.add_argument("--config", help="flat key = value config file")
    lr.add_argument("--task", choices=["categorical", "attributes"])
    lr.add_argument("--transcripts", help="CSV with header id,transcript")
    lr.add_argument("--endpoint", help="base URL of the chat-completion server")
    lr.add_argument("--model")
    lr.add_argument("--cache", default=None, help="JSONL reply cache path")
    lr.add_argument("--timeout", default=30.0)
    lr.add_argument("--retries", default=2)
    lr.add_argument("--parallelism", default=4)
    lr.add_argument("--out", help="output predictions CSV")
    lr.set_defaults(
        func=_cmd_llm_run,
        _required=["task", "transcripts", "endpoint", "model", "out"],
    )

    ls = lsub.add_parser("score", help="evaluate LLM predictions, disclosing exclusions")
    ls.add_argument("--pred")
    ls.add_argument("--labels")
    ls.add_argument("--split", default=None, choices=list(dataio.SPLITS))
    ls.add_argument("--method", default="llm", help="method name for the CSV row")
    ls.add_argument("--out")
    ls.set_defaults(func=_cmd_llm_score, _required=["pred", "labels", "out"])

    p = sub.add_parser("sweep", help="run an experiment grid")
    ssub = p.add_subparsers(dest="sweep_kind", required=True)

    t1 = ssub.add_parser("table1", help="fusion-strategy grid")
    t1.add_argument("--config", help="flat key = value config file")
    t1.add_argument("--data")
    t1.add_argument("--speech-ckpt")
    t1.add_argument("--text-ckpt")
    t1.add_argument("--split", default="test1", choices=list(dataio.SPLITS))
    t1.add_argument("--batch-size", default=32)
    t1.add_argument("--attn-dim", default=16)
    t1.add_argument("--lr", default=None)
    t1.add_argument("--epochs", default=None)
    t1.add_argument("--seed", default=None)
    t1.add_argument("--parallel", default=1, help="process-level fan-out over rows")
    t1.add_argument("--out", help="output CSV")
    t1.set_defaults(
        func=_cmd_sweep_table1,
        _required=["data", "speech_ckpt", "text_ckpt", "out"],
    )

    t2 = ssub.add_parser("table2", help="balancing-scheme grid")
    t2.add_argument("--config", help="flat key = value config file")
    t2.add_argument("--data")
    t2.add_argument("--modality", default="speech", choices=["speech", "text"])
    t2.add_argument("--split", default="test1", choices=list(dataio.SPLITS))
    t2.add_argument("--batch-size", default=32)
    t2.add_argument("--focal-gamma", default=2.0)
    t2.add_argument("--lr", default=None)
    t2.add_argument("--epochs", default=None)
    t2.add_argument("--seed", default=None)
    t2.add_argument("--parallel", default=1, help="process-level fan-out over rows")
    t2.add_argument("--out", help="output CSV")
    t2.set_defaults(func=_cmd_sweep_table2, _required=["data", "out"])

    p = sub.add_parser("replay", help="re-run a manifest and verify outputs reproduce")
    p.add_argument("--manifest")
    p.set_defaults(func=_cmd_replay, _required=["manifest"])

    return parser


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _merge_config(args, list(argv))
        _check_required(args)
        return args.func(args, list(argv))
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # runtime failure
        print(f"failure: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

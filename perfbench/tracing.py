"""Span recording for the traced benchmark run, and the per-layer metrics
computed from the spans.

``Tracer.install`` replaces the public module-level functions of each serlab
layer with wrappers that record one span per call.  A name imported into
another module with ``from ... import`` (``trainer.classification_metrics``)
is rebound there too, because that is where the caller looks it up.  The
spans stay in memory; ``Tracer.dump`` writes them once, at the end.  The
span format is documented in README.md, "Span format".
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time

LAYERS = ("numerics", "model", "losses", "sampling", "metrics", "dataio", "trainer", "cli")
OVERHEAD = "trace.overhead"

# numerics ops run once per graph node and these metrics helpers once per
# record: a span would cost more than the call it times.  Their time counts
# as the self time of the traced caller.
TRACED_ONLY = {"numerics": {"backward", "stack_rows"}}
UNTRACED = {"metrics": {"code_to_index", "validate_attributes", "clamp_attributes"}}


def _traced(layer: str, name: str) -> bool:
    if layer in TRACED_ONLY:
        return name in TRACED_ONLY[layer]
    return name not in UNTRACED.get(layer, ())


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _graph_nodes(root) -> int:
    """Nodes reachable from ``root`` through the autodiff parent links."""
    seen = {id(root)}
    todo = [root]
    while todo:
        for p in getattr(todo.pop(), "_parents", ()):
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


def _file_bytes(args, kwargs) -> dict:
    try:
        return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}
    except OSError:  # the call itself reports the missing file
        return {"bytes": 0}


def _train_attrs(args, kwargs) -> dict:
    cfg = _arg(args, kwargs, 0, "cfg")
    return {"modality": cfg.modality, "fusion": cfg.fusion, "task": cfg.task, "epochs": cfg.epochs}


def _command(args, kwargs) -> dict:
    words = [a for a in _arg(args, kwargs, 0, "argv") if not a.startswith("-")]
    grouped = words[:1] in (["analyze"], ["sweep"], ["llm"])
    return {"command": " ".join(words[:2] if grouped else words[:1])}


# Attributes recorded with a span.  BEFORE hooks run ahead of the call and
# AFTER hooks once it returned; both are timed as ``trace.overhead`` spans,
# which the analysis subtracts from the enclosing spans.
BEFORE = {
    "numerics.backward": lambda a, k: {"nodes": _graph_nodes(_arg(a, k, 0, "loss"))},
    "trainer.predict": lambda a, k: {"utts": len(_arg(a, k, 1, "records"))},
    "trainer.train_stage1": _train_attrs,
    "trainer.train_stage2": _train_attrs,
    "dataio.read_embeddings": _file_bytes,
    "dataio.read_checkpoint": _file_bytes,
    "cli.cli_dispatch": _command,
}
AFTER = {"dataio.write_embeddings": _file_bytes, "dataio.write_checkpoint": _file_bytes}


class Tracer:
    """In-memory span recorder.  A span is ``[name, start_ns, end_ns, parent, attrs]``;
    its id is its index, so ids follow start order."""

    def __init__(self, workload: str, run_id: str, phase: str) -> None:
        self.workload = workload
        self.run_id = run_id
        self.phase = phase
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _hook(self, hook, args, kwargs, attrs):
        start = time.perf_counter_ns()
        attrs.update(hook(args, kwargs))
        parent = self._stack[-1] if self._stack else None
        self.spans.append([OVERHEAD, start, time.perf_counter_ns(), parent, None])

    def wrap(self, name: str, fn):
        before, after = BEFORE.get(name), AFTER.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            attrs = {} if before or after else None
            if before:
                self._hook(before, args, kwargs, attrs)
            span = [name, 0, 0, stack[-1] if stack else None, attrs]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after:
                self._hook(after, args, kwargs, attrs)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"serlab.{layer}")
            for name, fn in vars(module).items():
                public = (inspect.isfunction(fn) and fn.__module__ == module.__name__
                          and not name.startswith("_"))
                if public and _traced(layer, name):
                    wrappers[fn] = self.wrap(f"{layer}.{name}", fn)
        for module in [m for n, m in sys.modules.items() if n.startswith("serlab.")]:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, name, value))
                    setattr(module, name, wrappers[value])
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    def records(self) -> list[dict]:
        return [
            {"id": i, "name": s[0], "start_ns": s[1], "end_ns": s[2], "parent": s[3],
             "workload": self.workload, "run": self.run_id, "phase": self.phase,
             "attrs": s[4] or {}}
            for i, s in enumerate(self.spans)
        ]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.records():
                f.write(json.dumps(rec, sort_keys=True) + "\n")


def load_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f]


# ---------------------------------------------------------------------------
# analysis

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def summarize(values) -> dict:
    """Median, the highest percentile with at least ten samples above it, and n."""
    values = sorted(values)
    n = len(values)
    if not n:
        return {"median": 0.0, "tail": 0.0, "tail_pct": None, "n": 0}
    out = {"median": statistics.median(values), "tail": 0.0, "tail_pct": None, "n": n}
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            rank = min(n - 1, int(round(pct / 100.0 * (n - 1))))
            out["tail"], out["tail_pct"] = values[rank], pct
            break
    return out


class SpanTree:
    """One process's spans with derived per-span times (all in ns).

    ``net``: duration minus trace overhead inside it.  ``self``: duration
    minus the spans of other layers (and overhead) under it; calls into the
    same layer stay in the caller's self time.  ``pure``: duration minus
    every child span, which summed over a layer gives the layer's self time.
    """

    def __init__(self, spans: list[dict]) -> None:
        self.spans = spans
        self._by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            self._by_name.setdefault(s["name"], []).append(i)
        n = len(spans)
        children = [0] * n
        overhead = [0] * n
        same_layer = [0] * n
        self.net, self.self, self.pure = [0] * n, [0] * n, [0] * n
        for i in reversed(range(n)):
            s = spans[i]
            dur = s["end_ns"] - s["start_ns"]
            self.pure[i] = dur - children[i]
            self.self[i] = self.pure[i] + same_layer[i]
            self.net[i] = dur - overhead[i]
            p = s["parent"]
            if p is None:
                continue
            children[p] += dur
            overhead[p] += dur if s["name"] == OVERHEAD else overhead[i]
            if layer_of(spans[p]["name"]) == layer_of(s["name"]):
                same_layer[p] += self.self[i]

    def where(self, name: str) -> list[int]:
        return self._by_name.get(name, [])


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


MS = 1e-6  # ns -> ms


def per_layer(timed: list[SpanTree], setup: list[SpanTree], cycles: int) -> tuple[dict, dict]:
    """Every per-layer metric of BENCHMARK.json from the traced spans, and
    the median / tail / sample count behind each timing.

    Metrics come from the timed section, except the dataio ones, which pool
    set-up and timed calls: a read or write costs the same in either phase,
    and set-up is where gen-synth and most checkpoint writes happen.
    """
    out: dict[str, float] = {}
    samples: dict[str, list[float]] = {}

    def timing(name: str, values, tail: bool = False) -> None:
        s = summarize(values)
        out[name] = s["median"]
        out[f"{name}.n"] = s["n"]
        if tail:
            out[f"{name}.tail"] = s["tail"]
        samples[name] = s

    def collect(trees, name, field="net", scale=MS, per=None):
        vals = []
        for t in trees:
            for i in t.where(name):
                v = getattr(t, field)[i] * scale
                if per is not None:
                    v /= max(1, t.spans[i]["attrs"][per])
                vals.append(v)
        return vals

    timing("numerics.backward.ms_per_step", collect(timed, "numerics.backward"), tail=True)
    timing("numerics.stack_rows.ms_per_step", collect(timed, "numerics.stack_rows"), tail=True)
    for fn in ("frame_hidden", "attentive_stat_pool", "mean_pool"):
        timing(f"model.{fn}.self_ms_per_call", collect(timed, f"model.{fn}", "self"), tail=True)
    for fn in ("cross_attention_fuse", "fusion_head_forward"):
        timing(f"model.{fn}.ms_per_call", collect(timed, f"model.{fn}"), tail=True)
    for fn in ("focal_loss", "ccc_loss"):
        timing(f"losses.{fn}.ms_per_step", collect(timed, f"losses.{fn}"), tail=True)
    timing("sampling.shuffled_batches.ms_per_epoch", collect(timed, "sampling.shuffled_batches"))
    timing("trainer.adam_step.ms_per_step", collect(timed, "trainer.adam_step"), tail=True)
    timing("trainer.predict.ms_per_utt", collect(timed, "trainer.predict", per="utts"))

    steps = _training_steps(timed)
    timing("trainer.forward.ms_per_step", steps["forward_ms"], tail=True)
    timing("trainer.dev_eval.ms_per_epoch", steps["dev_ms"])
    out["trainer.dev_eval.share"] = _ratio(sum(steps["dev_ms"]), steps["train_ms"])
    out["trainer.steps"] = len(steps["forward_ms"]) / max(1, cycles)
    out["numerics.graph_nodes_per_step"] = _median(steps["nodes"])
    out["model.encoder_forward.calls_per_step"] = _median(steps["encoder_calls"])
    out["model.frozen_encoder.share"] = _ratio(steps["stage2_encoder_ms"], steps["stage2_ms"])

    for stage, key, label in (
        ("train_stage1", "modality", "speech"), ("train_stage1", "modality", "text"),
        ("train_stage2", "fusion", "concat"), ("train_stage2", "fusion", "cross_attention"),
    ):
        # the ROADMAP baseline rows: stage-1 rows are the categorical runs
        vals = [
            t.net[i] * 1e-9 for t in timed for i in t.where(f"trainer.{stage}")
            if t.spans[i]["attrs"][key] == label
            and (stage == "train_stage2" or t.spans[i]["attrs"]["task"] == "categorical")
        ]
        timing(f"trainer.{stage}.{label}_s", vals)

    both = timed + setup
    timing("dataio.gen_synthetic.s", collect(both, "dataio.gen_synthetic", scale=1e-9))
    for fn in ("read_checkpoint", "write_checkpoint", "write_predictions", "read_predictions"):
        timing(f"dataio.{fn}.ms", collect(both, f"dataio.{fn}"))
    for fn in ("write_embeddings", "read_embeddings"):
        calls = [(t.spans[i]["attrs"]["bytes"], t.net[i]) for t in both for i in t.where(f"dataio.{fn}")]
        out[f"dataio.{fn}.mb_per_s"] = _ratio(sum(b for b, _ in calls) * 1e3, sum(d for _, d in calls))

    for fn in ("classification_metrics", "attribute_metrics", "binned_ccc", "compare_models"):
        timing(f"metrics.{fn}.ms", collect(timed, f"metrics.{fn}"))
    timing("cli.write_manifest.ms", collect(timed, "cli.write_manifest"))
    timing("cli.command.self_ms", collect(timed, "cli.cli_dispatch", "self"))

    for layer in LAYERS:
        total = sum(t.pure[i] for t in timed for i, s in enumerate(t.spans)
                    if layer_of(s["name"]) == layer)
        out[f"{layer}.self_s_per_cycle"] = total * 1e-9 / max(1, cycles)
    return out, samples


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


DEV_METRICS = ("metrics.classification_metrics", "metrics.attribute_metrics")
ENCODERS = ("model.encoder_forward", "model.frame_hidden")


def _training_steps(trees: list[SpanTree]) -> dict:
    """Split each training run into steps and dev evaluations, from outside.

    A step's forward runs from the end of the epoch plan or of the previous
    ``adam_step`` to the start of ``backward``; dev evaluation runs from the
    epoch's last ``adam_step`` to the return of the metrics call the trainer
    makes.  Descendants of a span are the ids after it that start before it
    ends, because spans of one process nest.
    """
    acc = {"forward_ms": [], "dev_ms": [], "nodes": [], "encoder_calls": [],
           "train_ms": 0.0, "stage2_ms": 0.0, "stage2_encoder_ms": 0.0}
    for t in trees:
        sp = t.spans
        for root in t.where("trainer.train_stage1") + t.where("trainer.train_stage2"):
            stage2 = sp[root]["name"] == "trainer.train_stage2"
            acc["train_ms"] += t.net[root] * MS
            if stage2:
                acc["stage2_ms"] += t.net[root] * MS
            mark = last_adam = sp[root]["start_ns"]
            overhead = encoder_calls = 0
            i = root + 1
            while i < len(sp) and sp[i]["start_ns"] < sp[root]["end_ns"]:
                s, name = sp[i], sp[i]["name"]
                if name == OVERHEAD:
                    overhead += s["end_ns"] - s["start_ns"]
                elif name in ("sampling.shuffled_batches", "sampling.balanced_batches"):
                    mark, overhead, encoder_calls = s["end_ns"], 0, 0
                elif name == "numerics.backward":
                    acc["forward_ms"].append((s["start_ns"] - mark - overhead) * MS)
                    acc["nodes"].append(s["attrs"]["nodes"])
                    acc["encoder_calls"].append(encoder_calls)
                elif name == "trainer.adam_step":
                    mark = last_adam = s["end_ns"]
                    overhead = encoder_calls = 0
                elif name in DEV_METRICS and s["parent"] == root:
                    acc["dev_ms"].append((s["end_ns"] - last_adam - overhead) * MS)
                    overhead = encoder_calls = 0
                elif name in ENCODERS and sp[s["parent"]]["name"] not in ENCODERS:
                    encoder_calls += name == "model.encoder_forward"
                    if stage2:
                        acc["stage2_encoder_ms"] += t.net[i] * MS
                i += 1
    return acc

"""The benchmark's per-layer metrics name functions that exist: each
``<layer>.<name>.…`` metric in ``BENCHMARK.json`` times a public function
defined in ``serlab.<layer>``, so deleting or renaming one fails here
instead of reading 0 in every later benchmark run."""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# names the harness derives from other spans instead of timing a function
DERIVED = {"self_s_per_cycle", "command", "forward", "dev_eval", "steps",
           "graph_nodes_per_step", "frozen_encoder"}
# metrics of functions the code no longer has; each must stay absent until
# the benchmark drops its metric
DEAD = {("numerics", "stack_rows")}


def _timed_functions():
    """(layer, name) of each per-layer metric that times a function."""
    names = {m["name"] for m in json.loads(BENCHMARK_JSON.read_text())["per_layer"]}
    pairs = {tuple(name.split(".")[:2]) for name in names if name != "trace.overhead"}
    return sorted(pair for pair in pairs if pair[1] not in DERIVED)


def _public_function(layer: str, name: str) -> bool:
    module = importlib.import_module(f"serlab.{layer}")
    fn = getattr(module, name, None)
    return (inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_"))


def test_every_timed_metric_names_a_public_function():
    pairs = _timed_functions()
    assert DEAD <= set(pairs)
    missing = [f"{layer}.{name}" for layer, name in pairs
               if (layer, name) not in DEAD and not _public_function(layer, name)]
    assert missing == []


def test_dead_metrics_still_name_no_function():
    assert [f"{layer}.{name}" for layer, name in DEAD if _public_function(layer, name)] == []

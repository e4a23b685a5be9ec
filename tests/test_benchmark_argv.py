"""The benchmark's commands parse: every set-up and cycle argv that
``perfbench/workloads.py`` builds is accepted by the CLI parser, so a renamed
flag fails here instead of as a failed benchmark operation."""

import importlib.util
import sys
from pathlib import Path

import pytest

from serlab import cli

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture
def workloads(monkeypatch):
    """``perfbench/workloads.py``, imported without writing a bytecode cache."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _commands(workloads, tmp_path):
    data, out, rows = tmp_path / "data", tmp_path / "out", workloads.Rows(8, 8, 8)
    for name, wl in workloads.WORKLOADS.items():
        commands = [wl.data(data, 1), *wl.checkpoints(data, 1, rows), *wl.cycle(data, out, 1, rows)]
        yield from ((name, cmd.argv) for cmd in commands)


def test_every_benchmark_command_parses(workloads, tmp_path):
    commands = list(_commands(workloads, tmp_path))
    assert {name for name, _ in commands} == {"stage1_c8", "fusion_grid", "heldout_score"}
    for name, argv in commands:
        try:
            cli._parser().parse_args(argv)
        except cli.UsageError as err:
            pytest.fail(f"{name}: {' '.join(argv)}: {err}")

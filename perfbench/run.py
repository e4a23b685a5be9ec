"""serlab's benchmark: one workload, closed loop with one caller, from one
process and one thread.

    python3 perfbench/run.py --workload stage1_c8 --seed 1 --seconds 25 --trace 0

Set-up (the workload's data and the checkpoints it consumes) runs
SETUP_REPEATS times, each in a fresh child process; ``setup_s`` is the
median of the set-up commands' wall time.  The timed section then repeats
the workload's cycle of serlab commands, each passed to ``cli.cli_dispatch``
in this process, until the next cycle would overrun ``--seconds``.  Every
output is checked; a failed check fails its operation and the run goes on.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced cycles within the same budget and reports the
per-layer metrics plus the tracing overhead.  The last stdout
line is the result as JSON; the full record, with the environment, goes to
``.perfbench/<workload>/result-trace<0|1>.json``.  See README.md.
"""

from __future__ import annotations

import os

# one thread: the benchmark measures serlab's single-threaded closed loop
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120


class Ledger:
    """Counts operations and failures.  A unit fails when its command failed,
    a check on it failed, its output differs from the first run of the same
    command in this benchmark run, or a scored quality is below its floor."""

    def __init__(self, floors: dict) -> None:
        self.floors = floors
        self.reference: dict = {}
        self.attempted = 0
        self.failed = 0
        self.quality: dict[str, list] = {"f1_micro": [], "ccc_avg": []}
        self.scores: list = []
        self.problems: list = []

    def add(self, key, outcome, scored: bool) -> None:
        for j, unit in enumerate(outcome.units):
            problems = list(unit.problems)
            if not problems:
                ref = self.reference.setdefault((key, j), unit.fingerprint)
                if unit.fingerprint != ref:
                    problems.append("output differs from the first run of this command")
            if scored:
                for metric, value in unit.quality.items():
                    self.quality[metric].append(value)
                    self.scores.append([key[1], j, metric, value])
                    if value < self.floors[metric]:
                        problems.append(f"{metric} {value:.4f} below floor {self.floors[metric]}")
            self.attempted += unit.ops
            if problems:
                self.failed += unit.ops
                self.problems.append({"argv": outcome.argv, "problems": problems,
                                      "stderr": outcome.stderr[-2000:]})


def _blas_threads():
    import numpy

    pattern = str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*")
    for lib in glob.glob(pattern):
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), name, None)
            if fn is not None:
                return fn()
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def run_setup(workloads, args, data: Path, run_id: str, k: int, spans: Path | None):
    """One set-up repeat in a child process; returns the child's wall time,
    start-up included, and its command outcomes (None if it crashed)."""
    argv = [sys.executable, str(HERE / "prepare.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--dir", str(data), "--phase", f"setup-{k}",
            "--run-id", run_id]
    if spans:
        argv += ["--spans", str(spans)]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return wall, None
    outcomes = []
    for o in json.loads(proc.stdout.splitlines()[-1])["outcomes"]:
        o["units"] = [workloads.Unit(**u) for u in o["units"]]
        outcomes.append(workloads.Outcome(**o))
    return wall, outcomes


def run_cycles(cli, workloads, cycle, ledger, budget_s=None, count=None, tracer=None):
    """Closed loop over whole cycles.  Stops after ``count`` cycles, or when
    one more cycle of the mean length would overrun ``budget_s`` and at least
    two ran, so every command's output is checked against a repeat.  Returns the
    cycle walls, each command's wall per cycle, and the work done; wall time
    counts only the commands, not the output checks between them."""
    walls, commands, train, scored = [], [], 0, 0
    while True:
        commands.append([])
        for idx, cmd in enumerate(cycle):
            outcome = workloads.execute(cli, cmd, tracer)
            ledger.add(("cycle", idx), outcome, scored=True)
            commands[-1].append(outcome.wall_s)
            train += outcome.train_examples
            scored += outcome.scored_utts
        walls.append(sum(commands[-1]))
        if count is not None:
            if len(walls) >= count:
                break
        elif len(walls) >= 2 and sum(walls) * (len(walls) + 1) / len(walls) > budget_s:
            break
    return walls, commands, train, scored


def median_cycle_s(commands) -> float:
    """A cycle's wall time as the sum of each command's median over cycles:
    the noise of a shared machine comes in bursts shorter than a cycle."""
    return sum(statistics.median(walls) for walls in zip(*commands))


def _setup_training_rate(setups) -> float:
    """Training examples per second of the set-up's training commands, median
    over repeats; the rate for a workload whose timed section only scores."""
    rates = []
    for _, outcomes in setups:
        trains = [o for o in outcomes or () if o.train_examples]
        wall = sum(o.wall_s for o in trains)
        if wall:
            rates.append(sum(o.train_examples for o in trains) / wall)
    return statistics.median(rates) if rates else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def main() -> int:
    p = argparse.ArgumentParser(description="serlab benchmark; see perfbench/README.md")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    if not (ROOT / "src" / "serlab" / "__init__.py").is_file():
        print(f"error: no serlab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads
    from serlab import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wl = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    data, out = work / "data", work / "out"
    out.mkdir(parents=True)
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"
    env = environment(args.seed)
    print(json.dumps({"env": env}))

    ledger = Ledger(workloads.FLOORS)
    setups = []
    for k in range(SETUP_REPEATS):
        spans = work / f"spans-setup-{k}.jsonl" if args.trace else None
        wall, outcomes = run_setup(workloads, args, data, run_id, k, spans)
        setups.append((wall, outcomes))
        if outcomes is None:
            ledger.attempted += 1
            ledger.failed += 1
            ledger.problems.append({"argv": ["prepare", f"setup-{k}"], "problems": ["crashed"]})
            continue
        for idx, outcome in enumerate(outcomes):
            ledger.add(("setup", idx), outcome, scored=False)

    result = {"workload": args.workload, "run_id": run_id, "env": env,
              "setup_walls_s": [w for w, _ in setups],
              "setup_command_walls_s": [[o.wall_s for o in outs or ()] for _, outs in setups]}
    metrics: dict[str, float] = {}
    if all(o is not None and o[0].rc == 0 for _, o in setups):
        rows = workloads.count_rows(data)
        cycle = wl.cycle(data, out, args.seed, rows)
        if args.trace:
            # untraced and traced cycles alternate, so drift in machine speed
            # falls on both sides of the overhead ratio
            tracer = tracing.Tracer(args.workload, run_id, "timed")
            walls_u, walls = [], []
            while True:
                walls_u += run_cycles(cli, workloads, cycle, ledger, count=1)[0]
                tracer.install()
                walls += run_cycles(cli, workloads, cycle, ledger, count=1, tracer=tracer)[0]
                tracer.uninstall()
                if (sum(walls_u) + sum(walls)) * (len(walls) + 1) / len(walls) > args.seconds:
                    break
            tracer.dump(work / "spans-timed.jsonl")
            timed = [tracing.SpanTree(tracer.records())]
            setup = [tracing.SpanTree(tracing.load_spans(work / f"spans-setup-{k}.jsonl"))
                     for k in range(SETUP_REPEATS) if (work / f"spans-setup-{k}.jsonl").is_file()]
            metrics, samples = tracing.per_layer(timed, setup, len(walls))
            metrics["trace.overhead"] = sum(walls) / sum(walls_u) - 1.0
            result.update(untraced_cycle_walls_s=walls_u, traced_cycle_walls_s=walls,
                          per_layer_samples=samples)
        else:
            walls, commands, train, scored = run_cycles(cli, workloads, cycle, ledger,
                                                        budget_s=args.seconds)
            cycle_s = median_cycle_s(commands) * len(walls)
            metrics = {
                "setup_s": statistics.median(sum(o.wall_s for o in outs) for _, outs in setups),
                "train_examples_per_s": train / cycle_s if train else _setup_training_rate(setups),
                "infer_utts_per_s": scored / cycle_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "quality_f1_micro": _mean(ledger.quality["f1_micro"]),
                "quality_ccc_avg": _mean(ledger.quality["ccc_avg"]),
            }
            result.update(command_walls_s=commands, train_examples=train, scored_utts=scored)
    metrics["ok_share"] = 1.0 - ledger.failed / max(1, ledger.attempted)

    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    reported = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in names}
    result.update(metrics=reported, attempted=ledger.attempted, failed=ledger.failed,
                  scores=ledger.scores, problems=ledger.problems)
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    for problem in ledger.problems:
        print(json.dumps(problem), file=sys.stderr)
    correct = ledger.failed == 0 and bool(ledger.attempted)
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

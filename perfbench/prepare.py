"""Set up one workload in a fresh process: generate its data, then train the
checkpoints its timed section consumes.

run.py starts this once per set-up repeat and waits for it, so the process
that runs the timed section never holds set-up memory:

    python3 perfbench/prepare.py --workload W --seed N --dir DATA --phase setup-0 \
        --run-id ID [--spans PATH]

With ``--spans`` the calls are traced and the spans written to PATH at the
end.  The last stdout line is JSON: every command's exit code, wall time,
work counts and checked output units.
"""

from __future__ import annotations

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--dir", required=True, type=Path)
    p.add_argument("--phase", required=True)
    p.add_argument("--run-id", required=True)
    p.add_argument("--spans", type=Path)
    args = p.parse_args()

    from serlab import cli

    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.spans:
        tracer = tracing.Tracer(args.workload, args.run_id, args.phase)
        tracer.install()
    outcomes = [workloads.execute(cli, wl.data(args.dir, args.seed), tracer)]
    if outcomes[0].rc == 0:
        rows = workloads.count_rows(args.dir)
        for cmd in wl.checkpoints(args.dir, args.seed, rows):
            outcomes.append(workloads.execute(cli, cmd, tracer))
    if tracer:
        tracer.uninstall()
        tracer.dump(args.spans)
    print(json.dumps({"outcomes": [dataclasses.asdict(o) for o in outcomes]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one hopqa benchmark workload and print its metrics.

    python3 bench/run.py --workload train_t512 --seed 0 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``. The
report lines name each metric with its unit. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The exit code is 1 when the
correctness gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread: on a 2-vCPU machine two threads made learn_d16 45-70%
# slower and its call times far less steady, and gained nothing at d=80.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "hopqa" / "__init__.py").is_file():
        print(f"bench: no hopqa package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, run_workload

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    outcome = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                           trace=bool(args.trace))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in outcome.lines:
        print(line)
    for problem in outcome.problems[:20]:
        print(f"gate: {problem}")
    print(json.dumps(outcome.result()), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark itself, at tiny sizes (about 30 s).

    python3 bench/smoke.py

For each workload it checks that every metric named in BENCHMARK.json is
emitted with its unit, that two traced runs give the same exact counts, and
that the correctness gate fails on a model whose weights are all NaN. It
also checks that the gate fails when dev answer F1 is below the floor.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import run  # sets the BLAS thread count before numpy is imported

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(run.SRC))

from workloads import WORKLOADS, run_call, run_workload, setup, summarize  # noqa: E402

TINY = {
    "train_t512": dict(d=4, distractors=1),
    "eval_cap": dict(d=4, batch_size=4, n_examples=8, distractors=3),
    "learn_d16": dict(d=4, batch_size=4, n_examples=8, n_dev=4, epochs=2, dev_f1_floor=0.0),
}
SECONDS = 0.5


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for name, tiny in TINY.items():
        w = dataclasses.replace(WORKLOADS[name], **tiny)
        outcomes = {}
        for trace in (False, True, True):
            outcome = run_workload(w, seed=3, seconds=SECONDS, trace=trace)
            check(outcome.correct, f"{name} trace={int(trace)}: gate passes ({outcome.problems[:3]})")
            emitted = {k: unit for k, (_, unit) in outcome.metrics.items()}
            check(emitted == wanted[trace],
                  f"{name} trace={int(trace)}: emits exactly the named metrics with their units")
            check(all(math.isfinite(v) for v, _ in outcome.metrics.values()),
                  f"{name} trace={int(trace)}: every value is finite")
            outcomes.setdefault(trace, []).append(outcome)
        counts = [{k: v for k, (v, unit) in o.metrics.items() if unit == "count"}
                  for o in outcomes[True]]
        check(counts[0] == counts[1], f"{name}: counts repeat across traced runs")
        if w.kind == "train":
            check(counts[0]["autodiff.nodes"] > 0 and counts[0]["layers.bigru.nodes"] > 0,
                  f"{name}: traced run counts graph nodes")

        inp = setup(w, seed=3)
        inp.model.load_state({k: a * np.nan for k, a in inp.model.state_arrays().items()})
        broken = summarize(w, [run_call(w, inp)], [0.0])
        check(not broken.correct and broken.failed > 0,
              f"{name}: gate fails on NaN weights ({broken.failed} of {broken.attempted} failed)")

    w = dataclasses.replace(WORKLOADS["learn_d16"], **dict(TINY["learn_d16"], dev_f1_floor=1.01))
    strict = run_workload(w, seed=3, seconds=SECONDS, trace=False)
    check(not strict.correct and strict.failed == 1, "learn_d16: gate fails below the F1 floor")

    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

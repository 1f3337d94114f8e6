"""Self-check of the benchmark, from the root of a checkout:

    python3 perfbench/selfcheck.py

1. Every workload, shrunk to a tiny size, runs traced and untraced and prints
   exactly the metrics BENCHMARK.json names, each with its unit, with no
   failed operation.
2. With H wrapped to return a perturbed value, every workload reports failed
   operations, so the correctness checks are shown to be able to fail. A
   small perturbation is caught by the reference comparison only: the paper's
   bounds sit far above the measured gaps, so the per-operation checks catch
   only gross faults, which the last case shows without the reference.

Exits 0 when both hold, 1 otherwise.
"""

import json
import shutil
import sys
from dataclasses import replace

import run

# Sizes small enough for the whole check to take a minute or so.
TINY = {
    "sto-pennies-ring4": dict(epsilon=0.5),
    "det-l1-ring8": dict(epsilon=2.0),
    "det-game-ring256": dict(m=16, N_override=20),
    "certify-l1-ring8": dict(epsilon=2.0),
}
SECONDS = 0.5
SEED = 1


def tiny(wl: run.Workload) -> run.Workload:
    return replace(wl, config={**wl.config, **TINY[wl.name]},
                   triples=min(wl.triples, 200))


def main() -> int:
    lib = run.import_library()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {trace: {m["name"]: m["unit"] for m in spec[key]}
            for trace, key in ((False, "end_to_end"), (True, "per_layer"))}
    refs = json.loads((run.HERE / "reference.json").read_text())["workloads"]
    problems = []
    if set(refs) != set(run.WORKLOADS) or \
            {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        problems.append("workload names differ between run.py, reference.json "
                        "and BENCHMARK.json")
    out = run.OUT_DIR / "selfcheck"
    bump = 0.01

    orig_H = lib.penalty.StackedSPP.H

    def perturbed_H(self, z):
        h = orig_H(self, z).copy()
        h[0] += bump
        return h

    def faulty_bench(wl, reference):
        lib.penalty.StackedSPP.H = perturbed_H
        try:
            return run.bench(lib, wl, SEED, SECONDS, False, reference, out)[0]
        finally:
            lib.penalty.StackedSPP.H = orig_H

    try:
        for name, wl in run.WORKLOADS.items():
            small = tiny(wl)
            result, bad = run.checked_op(lib, small,
                                         *run.op_inputs(small, run.REFERENCE_SEED, 0))
            if bad:
                problems.append(f"{name}: tiny reference operation failed: {bad}")
                continue
            ref = run.reference_lines(result)
            for trace in (False, True):
                tally, metrics, lines = run.bench(lib, small, SEED, SECONDS, trace,
                                                  ref, out)
                got = {k: v["unit"] for k, v in metrics.items()}
                if got != want[trace]:
                    missing = sorted(set(want[trace]) - set(got))
                    extra = sorted(set(got) - set(want[trace]))
                    problems.append(f"{name} trace {int(trace)}: metric names or "
                                    f"units differ; missing {missing}, extra {extra}")
                if tally.failed:
                    problems.append(f"{name} trace {int(trace)}: {tally.notes}")
            tally = faulty_bench(small, ref)
            print(f"{name}: H perturbed by {bump} in one coordinate -> "
                  f"{tally.failed} of {tally.attempted} failed; {tally.notes}")
            if tally.failed == 0:
                problems.append(f"{name}: perturbed H was not detected")
        bump = 100.0
        tally = faulty_bench(tiny(run.WORKLOADS["sto-pennies-ring4"]), None)
        print(f"sto-pennies-ring4 without reference: H perturbed by {bump} -> "
              f"{tally.failed} of {tally.attempted} failed; {tally.notes}")
        if tally.failed == 0:
            problems.append("per-operation checks missed a gross fault in H")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for p in problems:
        print("PROBLEM", p)
    print("selfcheck", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

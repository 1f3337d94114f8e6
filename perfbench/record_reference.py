"""Record reference.json: the reference operation's output for every workload.

Run from the root of a checkout, only when a change is meant to alter the
summary (for instance behind a schema bump), and say so in the change:

    python3 perfbench/record_reference.py
"""

import json
import sys

import run

TOLERANCE = {
    "rel": run.REL_TOL,
    "abs": run.ABS_TOL,
    "reason": "integer and text fields match exactly; float fields may move by "
              "summation order when code is vectorized or batched (a few ulps, "
              "amplified over N iterations), and 1e-9 relative still rejects "
              "any change of algorithm, schedule or instance",
}


def main() -> int:
    lib = run.import_library()
    refs = {}
    for name, wl in run.WORKLOADS.items():
        result, bad = run.checked_op(lib, wl, *run.op_inputs(wl, run.REFERENCE_SEED, 0))
        if bad:
            sys.exit(f"reference operation of {name} failed: {bad}")
        refs[name] = run.reference_lines(result)
    data = {"seed": run.REFERENCE_SEED, "operation": 0, "tolerance": TOLERANCE,
            "workloads": refs}
    (run.HERE / "reference.json").write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

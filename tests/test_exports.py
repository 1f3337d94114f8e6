"""The package's export list and what importing it loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import saddleslide


def test_every_export_resolves_and_none_repeats():
    names = saddleslide.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(saddleslide, name), name


# Run in a fresh interpreter, so modules that other tests imported into this
# one do not count.
_START_UP = """
import json, sys
import saddleslide, saddleslide.cli
from saddleslide import RunConfig, build_pipeline, certify_inexact_oracle, run_experiment

pennies = RunConfig(family="matching_pennies", network_kind="ring", m=4,
                    epsilon=0.5, N_override=2)
run_experiment(pennies)
_, spp, _, vi = build_pipeline(RunConfig(family="l1_saddle_random", network_kind="ring",
                                         m=4, epsilon=0.4))
certify_inexact_oracle(vi.H, spp.stacked_set(), vi.M, vi.delta, triples=50, seed=0)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"loaded": loaded}))
"""


def test_start_up_and_solves_load_no_scipy():
    src = str(Path(saddleslide.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", _START_UP], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["loaded"] == []

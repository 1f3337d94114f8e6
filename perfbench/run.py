"""Benchmark of saddleslide: one workload per process, closed loop, one caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload det-l1-ring8 --seed 3 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout this file sits in and is
driven only through its public entry points (``build_pipeline``,
``run_experiment``, ``certify_inexact_oracle``, ``emit_outputs``). One
operation starts only after the previous one has returned. Each operation
gets its own seeds, derived from ``--seed`` and its index, so the same seed
gives the same inputs.

``--trace 0`` times every operation untraced and prints the end-to-end
metrics. ``--trace 1`` alternates untraced and traced operations (see
``tracer.py``) and prints the per-layer metrics, with ``trace.overhead`` the
ratio of the two medians. Either way the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a readable table with every metric by name and unit.

Every operation is checked against the paper's cost model and inequalities
(``check_solve``, ``check_certify``). Once per run, outside the timed
operations, the benchmark also checks its reference operation against
``reference.json`` and the sigma = 0 determinism contract; both count as
attempted operations, so ``failed / attempted`` is the failure fraction.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported: the plain single-threaded
# baseline, and steadier dense matvecs on a small shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"

# build_pipeline gives x and y the same network, so one grad_G costs one round.
ROUNDS_PER_GRAD_G = 1
# Float summary fields may move by summation order when code is vectorized or
# batched (a few ulps, amplified over N iterations); 1e-9 relative keeps that
# and rejects any change of algorithm, schedule or instance. Integer and text
# fields must match exactly.
REL_TOL = 1e-9
ABS_TOL = 1e-12
REFERENCE_SEED = 0
# build_pipeline is repeated for this long (and at least this often) per run,
# in blocks of at least SETUP_BLOCK_S between calibration samples.
SETUP_SECONDS = 1.0
SETUP_MIN_REPS = 5
SETUP_BLOCK_S = 0.05

END_TO_END = {  # name -> unit
    "op_s": "s", "op_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "H_calls": "count",
}
PER_LAYER = {
    "geometry.prox.calls": "count", "geometry.prox.us": "us",
    "geometry.prox.s": "s", "geometry.contains.calls": "count",
    "geometry.contains.s": "s",
    "sliding.loop.s": "s", "sliding.loop.self_s": "s",
    "sliding.schedule.s": "s", "sliding.validate.calls": "count",
    "sliding.validate.s": "s", "sliding.outer_iters": "count",
    "sliding.inner_steps": "count",
    "penalty.H.calls": "count", "penalty.H.us": "us", "penalty.H.s": "s",
    "penalty.grad_G.calls": "count", "penalty.grad_G.self_us": "us",
    "penalty.build.s": "s", "penalty.linear_H_bytes": "bytes",
    "network.topology.s": "s", "network.gossip.calls": "count",
    "network.gossip.us": "us", "network.bytes_per_round": "bytes",
    "network.consensus.calls": "count", "network.consensus.us": "us",
    "instances.build.s": "s", "instances.operator_bound.s": "s",
    "instances.gap.calls": "count", "instances.gap.us": "us",
    "instances.certify.self_s": "s",
    "harness.noise.calls": "count", "harness.noise.self_us": "us",
    "harness.backfill.s": "s", "harness.retained_bytes": "bytes",
    "harness.H_over_predicted": "ratio",
    "trace.overhead": "ratio", "trace.self_cover": "ratio",
}
# Per-layer metrics that are computed from array sizes, not measured.
COMPUTED = ("penalty.linear_H_bytes", "network.bytes_per_round",
            "harness.retained_bytes")


@dataclass(frozen=True)
class Workload:
    """A fixed RunConfig; each operation re-seeds it. ``triples`` > 0 makes the
    operation build_pipeline + certify_inexact_oracle instead of a solve."""

    name: str
    config: dict
    triples: int = 0


WORKLOADS = {w.name: w for w in (
    Workload("sto-pennies-ring4",
             dict(family="matching_pennies", m=4, network_kind="ring",
                  epsilon=0.15, mode="stochastic", sigma=0.1,
                  noise_kind="uniform", p_confidence=0.25)),
    Workload("det-l1-ring8",
             dict(family="l1_saddle_random", d_x=2, d_y=2, m=8,
                  network_kind="ring", epsilon=0.4)),
    Workload("det-game-ring256",
             dict(family="matrix_game_random", d_x=3, d_y=3, m=256,
                  network_kind="ring", epsilon=0.05, N_override=250)),
    Workload("certify-l1-ring8",
             dict(family="l1_saddle_random", d_x=2, d_y=2, m=8,
                  network_kind="ring", epsilon=0.4),
             triples=10_000),
)}


def import_library():
    """Import saddleslide from this checkout's src/, or exit non-zero without a result."""
    src = ROOT / "src"
    if not (src / "saddleslide" / "__init__.py").is_file():
        sys.exit(f"perfbench: no saddleslide sources under {src}")
    sys.path.insert(0, str(src))
    import saddleslide

    if src.resolve() not in Path(saddleslide.__file__).resolve().parents:
        sys.exit(f"perfbench: saddleslide imported from {saddleslide.__file__}, "
                 f"not from {src}")
    return saddleslide


def op_seed(seed: int, index: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def op_inputs(wl: Workload, seed: int, index: int):
    """Config (run and instance seed) and certify seed of one operation."""
    from saddleslide import RunConfig

    s = op_seed(seed, index)
    return RunConfig(**wl.config, instance_seed=s, seed=s), op_seed(seed + 1, index)


# -- correctness checks ---------------------------------------------------------

def check_solve(rep) -> list[str]:
    """Names of the cost-model and bound checks one solve report fails."""
    bad = []
    if not (rep.communication_rounds == rep.N * ROUNDS_PER_GRAD_G
            and rep.grad_G_calls == rep.N):
        bad.append("rounds")
    if not (rep.H_calls_per_node == 2 * sum(rep.trace.inner_steps)
            and rep.H_calls_per_node <= rep.predicted_H_calls):
        bad.append("H_calls")
    if not (rep.consensus_x <= rep.predicted_consensus_x
            and rep.consensus_y <= rep.predicted_consensus_y):
        bad.append("consensus")
    limit = rep.epsilon if rep.mode == "stochastic" else rep.predicted_gap_bound
    if not rep.final_gap <= limit:
        bad.append("gap")
    return bad


def check_certify(cert) -> list[str]:
    return [] if cert.worst_slack >= 0 else ["slack"]


def _is_int(text: str) -> bool:
    return text.lstrip("-").isdigit()


def reference_lines(result) -> list[str]:
    """The lines compared against reference.json for one operation."""
    if hasattr(result, "summary_lines"):
        return result.summary_lines()
    return [f"{k} {v!r}" for k, v in (
        ("M", result.M), ("delta", result.delta), ("triples", result.triples),
        ("worst_slack", result.worst_slack), ("mean_slack", result.mean_slack))]


def matches_reference(lines: list[str], ref: list[str]) -> bool:
    if len(lines) != len(ref):
        return False
    for got, want in zip(lines, ref):
        gk, _, gv = got.partition(" ")
        wk, _, wv = want.partition(" ")
        if gk != wk:
            return False
        if gv == wv:
            continue
        if _is_int(wv) or _is_int(gv):
            return False
        try:
            g, r = float(gv), float(wv)
        except ValueError:
            return False
        if not math.isclose(g, r, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return False
    return True


# -- one operation --------------------------------------------------------------

def run_op(lib, wl: Workload, cfg, cert_seed: int):
    """One closed-loop operation through the public entry points; returns the
    report or certificate and the names of the checks it failed."""
    if wl.triples:
        _, spp, _, vi = lib.harness.build_pipeline(cfg)
        try:
            cert = lib.instances.certify_inexact_oracle(
                vi.H, spp.stacked_set(), vi.M, vi.delta, triples=wl.triples,
                seed=cert_seed)
        except lib.CertificationError:
            return None, ["certificate"]
        return cert, check_certify(cert)
    rep = lib.run_experiment(cfg)
    return rep, check_solve(rep)


def checked_op(lib, wl, cfg, cert_seed):
    try:
        return run_op(lib, wl, cfg, cert_seed)
    except Exception as e:  # an operation that raises counts as failed
        return None, [f"raised {type(e).__name__}: {e}"]


def determinism_check(lib, out: Path) -> bool:
    """Stochastic pennies with sigma = 0 must write the deterministic run's
    summary.txt and trace.csv bytes (criterion 5's determinism contract)."""
    base = lib.RunConfig(**WORKLOADS["sto-pennies-ring4"].config)
    det = replace(base, mode="deterministic", sigma=0.0)
    sto0 = replace(base, sigma=0.0)
    for name, cfg in (("det", det), ("sto0", sto0)):
        rep = lib.run_experiment(cfg)
        lib.emit_outputs(rep, rep.trace, out / name)
    return all((out / "det" / f).read_bytes() == (out / "sto0" / f).read_bytes()
               for f in ("summary.txt", "trace.csv"))


# -- per-layer metrics of one traced operation ----------------------------------

def layer_metrics(tracer, result) -> dict:
    st = tracer.stats

    def calls(n):
        return st[n][0] if n in st else 0

    def busy(n):
        return st[n][1] if n in st else 0.0

    def self_(n):
        return st[n][2] if n in st else 0.0

    def us(total, n):
        return 1e6 * total / calls(n) if calls(n) else 0.0

    op = st["operation"]
    net, spp = tracer.pipeline[:2]
    solve = hasattr(result, "trace")
    retained = 0
    if solve:
        t = result.trace
        retained = sum(a.nbytes for a in
                       t.z_bar_snapshots + t.z_snapshots + t.z_under_snapshots)
    return {
        "geometry.prox.calls": calls("geometry.prox"),
        "geometry.prox.us": us(busy("geometry.prox"), "geometry.prox"),
        "geometry.prox.s": busy("geometry.prox"),
        "geometry.contains.calls": calls("geometry.contains"),
        "geometry.contains.s": busy("geometry.contains"),
        "sliding.loop.s": busy("sliding.loop"),
        "sliding.loop.self_s": self_("sliding.loop"),
        "sliding.schedule.s": busy("sliding.schedule"),
        "sliding.validate.calls": calls("sliding.validate"),
        "sliding.validate.s": busy("sliding.validate"),
        "sliding.outer_iters": result.N if solve else 0,
        "sliding.inner_steps": sum(result.trace.inner_steps) if solve else 0,
        "penalty.H.calls": calls("penalty.H"),
        "penalty.H.us": us(busy("penalty.H"), "penalty.H"),
        "penalty.H.s": busy("penalty.H"),
        "penalty.grad_G.calls": calls("penalty.grad_G"),
        "penalty.grad_G.self_us": us(self_("penalty.grad_G"), "penalty.grad_G"),
        "penalty.build.s": busy("penalty.build"),
        "penalty.linear_H_bytes": spp.linear_H.nbytes if spp.linear_H is not None else 0,
        "network.topology.s": busy("network.topology"),
        "network.gossip.calls": calls("network.gossip"),
        "network.gossip.us": us(busy("network.gossip"), "network.gossip"),
        "network.bytes_per_round": 2 * len(net.edges) * (spp.d_x + spp.d_y) * 8,
        "network.consensus.calls": calls("network.consensus"),
        "network.consensus.us": us(busy("network.consensus"), "network.consensus"),
        "instances.build.s": busy("instances.build"),
        "instances.operator_bound.s": busy("instances.operator_bound"),
        "instances.gap.calls": calls("instances.gap"),
        "instances.gap.us": us(busy("instances.gap"), "instances.gap"),
        "instances.certify.self_s": self_("instances.certify"),
        "harness.noise.calls": calls("harness.noise"),
        "harness.noise.self_us": us(self_("harness.noise"), "harness.noise"),
        "harness.backfill.s": busy("harness.backfill"),
        "harness.retained_bytes": retained,
        "harness.H_over_predicted":
            result.H_calls_per_node / result.predicted_H_calls if solve else 0.0,
        "trace.self_cover": 1.0 - op[2] / op[1],
    }


# Per-layer metrics a workload does not exercise, with the reason; they print 0.
ABSENT = {
    "certify-l1-ring8": (
        "no solver: no prox, contains, loop, schedule, grad_G, gossip, "
        "consensus, gap, noise or back-fill",
        ("geometry.", "sliding.", "penalty.grad_G", "network.gossip",
         "network.consensus", "instances.gap", "harness.")),
    "det-l1-ring8": ("deterministic: no noise oracle; no certify",
                     ("harness.noise", "instances.certify")),
    "det-game-ring256": ("deterministic: no noise oracle; no certify",
                         ("harness.noise", "instances.certify")),
    "sto-pennies-ring4": ("no certify", ("instances.certify",)),
}


# -- machine speed --------------------------------------------------------------

class Calibration:
    """A fixed kernel, independent of saddleslide, timed between operations.

    On a shared host this machine's speed drifts by tens of percent, for every
    kind of code: the same operation on the same input ran 0.35 s and 0.75 s
    a minute apart, with CPU time equal to wall time. The kernel mixes what
    the operations spend their time on (small-array numpy dispatch, a BLAS
    matvec on a 19 MB matrix, the size of det-game-ring256's dense operator
    and far larger than L2, and plain Python arithmetic), and runs before
    and after every timed interval. Each time the benchmark reports is in
    reference seconds: the raw interval times REF_S over the mean of the two
    kernel times around it. Over eleven 25 s
    windows of det-game-ring256 this narrowed the range of median operation
    time from 32 % of its median (raw) to 6 %. Raw seconds are printed in the
    readable table. The kernel's matrix is part of every workload's
    peak_rss_mb.
    """

    # Median kernel wall time on the 2-vCPU Xeon VM of the committed baseline.
    REF_S = 0.034

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._A = rng.standard_normal((1536, 1536))
        self._x = rng.standard_normal(1536)
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def sample(self) -> None:
        np = self._np
        c0, t0 = time.process_time(), time.perf_counter()
        v = np.zeros(16)
        B = np.ones((8, 8))
        for _ in range(1500):
            v = np.clip(v * 0.5 + 0.1, 0.0, 1.0)
            B @ B[0]
        for _ in range(10):
            self._A @ self._x
        acc = 0
        for k in range(100_000):
            acc += k * k
        self.wall.append(time.perf_counter() - t0)
        self.cpu.append(time.process_time() - c0)

    def scale(self) -> tuple[float, float]:
        """Wall and CPU factors to reference seconds for the interval between
        the last two samples."""
        return (2.0 * self.REF_S / (self.wall[-2] + self.wall[-1]),
                2.0 * self.REF_S / (self.cpu[-2] + self.cpu[-1]))


# -- the run --------------------------------------------------------------------

@dataclass
class Run:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def record(self, label: str, bad: list[str]) -> None:
        self.attempted += 1
        if bad:
            self.failed += 1
            self.notes.append(f"FAIL {label}: {', '.join(bad)}")


def high_percentile(values: list[float]):
    """Highest of p50/p90/p99/p99.9 with at least ten samples above it."""
    best = None
    n = len(values)
    for q in (50, 90, 99, 99.9):
        k = math.ceil(q / 100 * n)  # samples at or below the percentile
        if n - k >= 10:
            best = (q, sorted(values)[k - 1])
    return best


def time_setup(lib, wl: Workload, seed: int, cal: Calibration):
    """build_pipeline repeated in blocks of at least SETUP_BLOCK_S, with a
    calibration sample after each block; returns (reference, raw) seconds."""
    ref, raw = [], []
    end = time.perf_counter() + SETUP_SECONDS
    while len(raw) < SETUP_MIN_REPS or time.perf_counter() < end:
        block = []
        block_end = time.perf_counter() + SETUP_BLOCK_S
        while not block or time.perf_counter() < block_end:
            cfg, _ = op_inputs(wl, seed, len(raw) + len(block) + 1)
            t0 = time.perf_counter()
            lib.build_pipeline(cfg)
            block.append(time.perf_counter() - t0)
        cal.sample()
        w, _ = cal.scale()
        raw += block
        ref += [t * w for t in block]
    return ref, raw


def bench(lib, wl: Workload, seed: int, seconds: float, trace: bool,
          reference: list[str] | None, out: Path) -> tuple[Run, dict, list[str]]:
    """Run one workload; returns the tally, the metrics and readable lines."""
    import tracer as tracing

    run = Run()
    lines = []

    # Reference operation: also the warm-up, untimed.
    result, bad = checked_op(lib, wl, *op_inputs(wl, REFERENCE_SEED, 0))
    if result is not None and reference is not None \
            and not matches_reference(reference_lines(result), reference):
        bad = bad + ["summary differs from reference"]
    run.record("reference", bad)
    lines.append(f"check reference-op: {'fail' if bad else 'pass'}")

    try:
        ok = determinism_check(lib, out)
    except Exception as e:  # a raising check is a failed check
        ok = False
        run.notes.append(f"determinism raised {type(e).__name__}: {e}")
    run.record("sigma0-determinism", [] if ok else ["bytes differ"])
    lines.append(f"check sigma0-determinism: {'pass' if ok else 'fail'}")

    cal = Calibration()
    cal.sample()
    setup, raw_setup = ([], []) if trace else time_setup(lib, wl, seed, cal)

    tr = tracing.Tracer()
    wall, cpu, raw_wall, traced_wall, layers = [], [], [], [], []
    h_calls, gap_ratio, rounds = [], [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        i += 1
        inputs = op_inputs(wl, seed, i)
        traced = trace and i % 2 == 0
        if traced:
            tr.install()
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            if traced:
                with tr.operation(i):
                    result, bad = checked_op(lib, wl, *inputs)
            else:
                result, bad = checked_op(lib, wl, *inputs)
            t1, c1 = time.perf_counter(), time.process_time()
        finally:
            tr.uninstall()
        run.record(f"op {i}", bad)
        if not bad and traced:
            m = layer_metrics(tr, result)
        elif not bad and wl.triples:
            counts = (2 * result.triples, None, None)
        elif not bad:
            counts = (result.H_calls_per_node,
                      result.final_gap / result.predicted_gap_bound,
                      result.communication_rounds)
        # drop this operation's objects now, so peak RSS is one operation's
        result = tr.pipeline = None
        cal.sample()
        if bad:
            continue
        w, c = cal.scale()
        if traced:
            traced_wall.append((t1 - t0) * w)
            layers.append({k: v * w if PER_LAYER[k] in ("s", "us") else v
                           for k, v in m.items()})
            continue
        wall.append((t1 - t0) * w)
        cpu.append((c1 - c0) * c)
        raw_wall.append(t1 - t0)
        h_calls.append(counts[0])
        if counts[1] is not None:
            gap_ratio.append(counts[1])
            rounds.append(counts[2])

    if not wall or (trace and not layers):
        run.notes.append("no successful timed operation")
        return run, {}, lines + run.notes

    lines.append(f"machine: calibration kernel median {1e3 * statistics.median(cal.wall):.4g} ms "
                 f"over {len(cal.wall)} samples (reference {1e3 * Calibration.REF_S:g} ms); "
                 "times below are in reference seconds")
    if trace:
        metrics = {k: statistics.median(m[k] for m in layers) for k in PER_LAYER
                   if k != "trace.overhead"}
        metrics["trace.overhead"] = statistics.median(traced_wall) / statistics.median(wall)
        units = PER_LAYER
        lines.append(f"traced ops {len(traced_wall)}, untraced ops {len(wall)}")
        reason, prefixes = ABSENT[wl.name]
        absent = [k for k in PER_LAYER if k.startswith(prefixes)]
        if absent:
            lines.append(f"absent (printed as 0): {' '.join(absent)} -- {reason}")
        OUT_DIR.mkdir(exist_ok=True)
        tr.write_spans(OUT_DIR / f"spans-{wl.name}-{seed}.jsonl")
    else:
        metrics = {
            "op_s": statistics.median(wall),
            "op_cpu_s": statistics.median(cpu),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "H_calls": statistics.median(h_calls),
        }
        units = END_TO_END
        hp = high_percentile(wall)
        lines.append(f"op_s samples {len(wall)}; " + (
            f"p{hp[0]:g} {hp[1]:.6g} s" if hp else
            "too few samples for a percentile with 10 beyond it"))
        lines.append(f"raw seconds: op_s {statistics.median(raw_wall):.6g}, setup_s "
                     f"{statistics.median(raw_setup):.6g} over {len(raw_setup)} samples")
        if gap_ratio:
            lines.append(f"gap_ratio {statistics.median(gap_ratio):.6g} ratio")
            lines.append(f"comm_rounds {statistics.median(rounds):g} count")
    lines.append(f"fail_frac {run.failed / run.attempted:.6g} ratio "
                 f"({run.failed} of {run.attempted})")
    for k, v in metrics.items():
        tag = " (computed)" if k in COMPUTED else ""
        lines.append(f"{k} {v:.6g} {units[k]}{tag}")
    return run, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, \
        lines + run.notes


def environment(lib) -> dict:
    """Machine and library versions the numbers were taken with."""
    import ctypes
    import glob

    import numpy as np
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                       "numpy.libs", "*openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "saddleslide": lib.__version__}


def load_reference(name: str):
    data = json.loads((HERE / "reference.json").read_text())
    return data["workloads"][name]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    lib = import_library()
    wl = WORKLOADS[args.workload]
    out = OUT_DIR / f"{wl.name}-{os.getpid()}"
    try:
        run, metrics, lines = bench(lib, wl, args.seed, args.seconds,
                                    bool(args.trace), load_reference(wl.name), out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    env = environment(lib)
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} closed loop, 1 caller")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for ln in lines:
        print(ln)
    print(json.dumps({"correct": run.failed == 0 and bool(metrics),
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

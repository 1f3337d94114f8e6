"""Batch experiment runner: config files, pipeline wiring, reports, outputs.

``run_experiment`` executes the full recipe: build the network, build the
instance, bound the operator, derive penalty coefficients and the smoothness
and oracle constants, pick N as the smallest integer whose rate bound meets
the target (epsilon deterministically, p * epsilon in stochastic mode, by
Markov's inequality), run the solver, and assemble a report comparing
measured quantities against the instantiated theorem bounds.

The per-iteration gap and the x and y consensus violations stream through
a solver observer: it copies each outer iterate z_bar_k into one block of
rows, about ``4 * CONSENSUS_CHUNK`` floats, and each full block, and the
partial one after the solve, goes through the gap oracle and
``consensus_violation`` in one call each. Both act row-wise, each row
bitwise the single-point call, so the columns do not depend on the block
size. Neither splits a batch, so the block alone bounds their working
memory, and a run's memory does not grow with N. The final values are
those of the last row, z_bar_N, the returned point.

Reports are pure functions of (config, seed): emitted files redact wall-clock
fields to 0.0 so re-running a config yields identical bytes. Stochastic mode
with sigma = 0 degenerates to the deterministic pipeline outright, making the
two reports identical.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np
import yaml

from .errors import ConfigurationError, DimensionError, ParameterError, is_int, is_real
from .geometry import omega_sq_bound
from .instances import (MATCHING_PENNIES, exact_gap_matrix_game, l1_saddle_gap,
                        make_matrix_game, operator_bound_L0, random_l1_saddle,
                        random_matrix_game)
from .network import MAX_NODES, TOPOLOGY_KINDS, build_topology, consensus_violation
from .penalty import StackedSPP, build_penalized_vi, penalty_coefficients
from .sliding import (deterministic_T_raw, deterministic_schedule, mps_run, stochastic_T_raw,
                      stochastic_schedule)

# Not a second solver: the benchmark's tracer (perfbench/tracer.py) still
# patches harness.smps_run. ROADMAP item 1 moves the tracer off this name and
# deletes the alias.
smps_run = mps_run

FAMILIES = ("matching_pennies", "matrix_game_random", "l1_saddle_random")
NOISE_KINDS = ("uniform", "gaussian")
# Floats per noise block of make_stochastic_oracle (32 kB).
NOISE_BLOCK = 4096
# run_experiment's block of outer iterates holds about 4 * CONSENSUS_CHUNK
# floats (512 kB); see the module docstring.
CONSENSUS_CHUNK = 1 << 14
# Largest N a run accepts, whether picked or overridden: past it, consecutive
# N^2 stop being exact floats, and pick_N's search could step through equal
# values forever.
MAX_N = 2 ** 26
SCHEMA_VERSION = 1


# The config file schema, one row per key: (RunConfig field, section, key).
# to_dict and from_dict both follow it; a key absent from a file takes the
# field's default.
_SCHEMA = (
    ("family", "problem", "family"),
    ("d_x", "problem", "d_x"),
    ("d_y", "problem", "d_y"),
    ("instance_seed", "problem", "seed"),
    ("box_radius", "problem", "box_radius"),
    ("network_kind", "network", "kind"),
    ("m", "network", "m"),
    ("network_p", "network", "p"),
    ("network_seed", "network", "seed"),
    ("epsilon", "run", "epsilon"),
    ("mode", "run", "mode"),
    ("sigma", "run", "sigma"),
    ("noise_kind", "run", "noise_kind"),
    ("p_confidence", "run", "p_confidence"),
    ("N_override", "run", "N_override"),
    ("seed", "run", "seed"),
    ("out_dir", "run", "out_dir"),
)
_SECTION_KEYS = {section: {key: fld for fld, sec, key in _SCHEMA if sec == section}
                 for section in ("problem", "network", "run")}
_KEY_NAMES = {fld: f"{section}.{key}" for fld, section, key in _SCHEMA}


@dataclass
class RunConfig:
    """One experiment: problem family + network + accuracy target + mode."""

    family: str = "matching_pennies"
    d_x: int = 2
    d_y: int = 2
    instance_seed: int = 0
    box_radius: float = 1.0
    network_kind: str = "single"
    m: int = 1
    network_p: Optional[float] = None
    network_seed: int = 0
    epsilon: float = 0.05
    mode: str = "deterministic"
    sigma: float = 0.0
    noise_kind: str = "uniform"
    p_confidence: float = 0.25
    N_override: Optional[int] = None
    seed: int = 0
    out_dir: Optional[str] = None

    def validate(self) -> None:
        def bad(fld: str, why: str):
            v = getattr(self, fld)
            return ConfigurationError(f"config field {_KEY_NAMES[fld]!r} {why}, "
                                      f"got {v!r} ({type(v).__name__})")

        if self.family not in FAMILIES:
            raise bad("family", f"must be one of {FAMILIES}")
        for fld in ("d_x", "d_y"):
            dim = getattr(self, fld)
            if not (is_int(dim) and dim >= 1):
                raise bad(fld, "must be an integer >= 1")
            if self.family == "matching_pennies" and dim != 2:
                raise bad(fld, "must be 2 for matching_pennies")
        if not (is_int(self.instance_seed) and self.instance_seed >= 0):
            raise bad("instance_seed", "must be an integer >= 0")
        if not (is_real(self.box_radius) and self.box_radius > 0):
            raise bad("box_radius", "must be a positive real")
        if not (is_int(self.m) and 1 <= self.m <= MAX_NODES):
            raise bad("m", f"must be an integer in [1, {MAX_NODES}]")
        if self.m == 1:
            if self.network_kind != "single":
                raise bad("network_kind", "must be 'single' when m = 1")
        elif self.network_kind not in TOPOLOGY_KINDS:
            raise bad("network_kind", f"must be one of {TOPOLOGY_KINDS} when m >= 2")
        if not (self.network_p is None or is_real(self.network_p)):
            raise bad("network_p", "must be a real or null")
        if not (is_int(self.network_seed) and self.network_seed >= 0):
            raise bad("network_seed", "must be an integer >= 0")
        if not (is_real(self.epsilon) and self.epsilon > 0):
            raise bad("epsilon", "must be a positive real")
        if self.mode not in ("deterministic", "stochastic"):
            raise bad("mode", "must be 'deterministic' or 'stochastic'")
        if not (is_real(self.sigma) and self.sigma >= 0):
            raise bad("sigma", "must be a nonnegative real")
        if self.mode == "deterministic" and self.sigma != 0.0:
            raise bad("sigma", "must be 0 in deterministic mode")
        if self.noise_kind not in NOISE_KINDS:
            raise bad("noise_kind", f"must be one of {NOISE_KINDS}")
        if not is_real(self.p_confidence):
            raise bad("p_confidence", "must be a real")
        if self.mode == "stochastic" and not (0.0 < self.p_confidence < 1.0):
            raise bad("p_confidence", "must lie in (0, 1) in stochastic mode")
        if self.N_override is not None and not (
                is_int(self.N_override) and 1 <= self.N_override <= MAX_N):
            raise bad("N_override", f"must be an integer in [1, {MAX_N}] or null")
        if not (is_int(self.seed) and self.seed >= 0):
            raise bad("seed", "must be an integer >= 0")
        if not (self.out_dir is None or isinstance(self.out_dir, (str, os.PathLike))):
            raise bad("out_dir", "must be a path or null")

    def to_dict(self) -> dict:
        data = {"schema_version": SCHEMA_VERSION}
        for fld, section, key in _SCHEMA:
            v = getattr(self, fld)  # a numpy scalar is written as its Python value
            data.setdefault(section, {})[key] = v.item() if isinstance(v, np.generic) else v
        return data

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigurationError("config root must be a mapping")
        extra = set(data) - {"schema_version", *_SECTION_KEYS}
        if extra:
            raise ConfigurationError(f"config has unknown top-level keys {sorted(extra)}")
        version = data.get("schema_version", SCHEMA_VERSION)
        if not (is_int(version) and version == SCHEMA_VERSION):
            raise ConfigurationError(f"config field 'schema_version' must be {SCHEMA_VERSION}, "
                                     f"got {version!r} ({type(version).__name__})")
        kwargs = {}
        for section, keys in _SECTION_KEYS.items():
            blk = {} if data.get(section) is None else data[section]
            if not isinstance(blk, dict):
                raise ConfigurationError(f"config section {section!r} must be a mapping")
            extra = set(blk) - set(keys)
            if extra:
                raise ConfigurationError(
                    f"config section {section!r} has unknown keys {sorted(extra)}")
            kwargs.update((keys[k], v) for k, v in blk.items())
        cfg = RunConfig(**kwargs)
        cfg.validate()
        return cfg

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_yaml(text: str) -> "RunConfig":
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as e:
            raise ConfigurationError(f"config is not valid structured text: {e}")
        return RunConfig.from_dict(data)

    @staticmethod
    def from_yaml_file(path) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigurationError(f"cannot read config file {path}: {e}")
        return RunConfig.from_yaml(text)


@dataclass
class RunTrace:
    """The columns of one run, one entry per outer iteration k = 1..N: T_k,
    which fixes the cost columns (k grad_G calls and 2 (T_1 + ... + T_k) H
    calls by iteration k), and the gap and consensus columns that
    ``run_experiment`` streams from the solver's observer. The snapshot lists
    stay empty, since no run keeps iterates; only the benchmark in
    ``perfbench/`` reads them, summing their ``nbytes``."""

    inner_steps: list
    gap_estimate: list
    consensus_x: list
    consensus_y: list
    z_bar_snapshots: list = field(default_factory=list)
    z_snapshots: list = field(default_factory=list)
    z_under_snapshots: list = field(default_factory=list)


@dataclass
class RunReport:
    """Measured outcomes of one run next to the instantiated theorem bounds.

    ``mode`` is the effective mode: stochastic configs with sigma = 0 run the
    deterministic pipeline and report as such. The call counts follow from
    the schedule (see :func:`mps_run`): ``grad_G_calls`` is N, and
    ``H_calls_per_node`` is 2 (T_1 + ... + T_N), the stacked oracle call
    count (the algorithm is synchronous, every node evaluates its local block
    on every call). ``summary_lines`` writes the fields before
    ``wall_time_s`` in declaration order.
    """

    family: str
    mode: str
    m: int
    epsilon: float
    N: int
    L: float
    M: float
    delta: float
    L0: float
    sigma: float
    omega_sq: float
    R_alpha_sq: float
    R_beta_sq: float
    final_gap: float
    consensus_x: float
    consensus_y: float
    communication_rounds: int
    grad_G_calls: int
    H_calls_per_node: int
    predicted_gap_bound: float
    predicted_rounds: int
    predicted_H_calls: float
    predicted_consensus_x: float
    predicted_consensus_y: float
    wall_time_s: float
    noise_kind: Optional[str] = None
    p_confidence: Optional[float] = None
    trace: Optional[RunTrace] = None

    def summary_lines(self) -> list[str]:
        """Stable key/value lines; wall time redacted for reproducibility."""
        keys = [f.name for f in fields(self)]
        keys = keys[:keys.index("wall_time_s")]
        if self.mode == "stochastic":
            keys += ["noise_kind", "p_confidence"]
        lines = ["saddleslide-summary 1"]
        for k in keys:
            v = getattr(self, k)
            lines.append(f"{k} {float(v)!r}" if isinstance(v, float) else f"{k} {v}")
        lines.append("wall_time_s 0.0")
        return lines


def make_stochastic_oracle(H: Callable[[np.ndarray], np.ndarray], kind: str,
                           sigma: float, dim: int, seed: int):
    """Additive-noise oracle H(z) + zeta with E zeta = 0 and E||zeta||^2 <= sigma^2.

    ``uniform`` draws each coordinate from [-a, a] with a = sigma sqrt(3/dim),
    which meets the variance budget with equality; ``gaussian`` draws
    coordinate std sigma/sqrt(dim) truncated at four stds, keeping the noise
    bounded (slightly under budget). At sigma = 0 every draw is +0.0, so the
    oracle returns values equal to H's.

    The returned ``oracle(z)`` owns its noise stream,
    ``np.random.default_rng(seed)``, and a noise block: it draws about
    ``NOISE_BLOCK`` floats at once, as rows of length dim, and serves one row
    per call. numpy's Generator fills an array in sequence, so each row is
    bitwise the ``rng.uniform(-a, a, dim)`` (or clipped ``rng.normal``) that
    a draw per call would give. ``dim`` must be an integer >= 1 and ``seed``
    an integer >= 0, and an ``H(z)`` whose shape is not ``(dim,)`` raises
    ``DimensionError``.
    """
    if kind not in NOISE_KINDS:
        raise ConfigurationError(f"run.noise_kind must be one of {NOISE_KINDS}, got {kind!r}")
    if not (is_real(sigma) and sigma >= 0):
        raise ParameterError(f"sigma must be a finite real >= 0, got {sigma!r}")
    if not (is_int(dim) and dim >= 1):
        raise ParameterError(f"dim must be an integer >= 1, got {dim!r}")
    if not (is_int(seed) and seed >= 0):
        raise ParameterError(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    rows = max(1, NOISE_BLOCK // dim)
    if kind == "uniform":
        a = sigma * math.sqrt(3.0 / dim)

        def draw() -> np.ndarray:
            return rng.uniform(-a, a, (rows, dim))
    else:
        s = sigma / math.sqrt(dim)
        cap = 4.0 * s

        def draw() -> np.ndarray:
            return np.clip(rng.normal(0.0, s, (rows, dim)), -cap, cap)
    block = None
    row = rows

    def oracle(z: np.ndarray) -> np.ndarray:
        nonlocal block, row
        if row == rows:
            block, row = draw(), 0
        row += 1
        h = H(z)
        if h.shape != (dim,):
            raise DimensionError(f"H at a point of shape {np.shape(z)} has shape "
                                 f"{np.shape(h)}, not that of a noise row ({dim},)")
        return h + block[row - 1]

    return oracle


def _build_instance(config: RunConfig) -> StackedSPP:
    if config.family == "matching_pennies":
        return make_matrix_game([MATCHING_PENNIES.copy() for _ in range(config.m)])
    if config.family == "matrix_game_random":
        return random_matrix_game(config.m, config.d_x, config.d_y,
                                  config.instance_seed)
    if config.family == "l1_saddle_random":
        return random_l1_saddle(config.m, config.d_x, config.d_y,
                                config.instance_seed, box_radius=config.box_radius)
    raise ConfigurationError(f"problem.family {config.family!r} is not shipped")


def build_pipeline(config: RunConfig):
    """Network + instance + penalty coefficients + penalized VIProblem.

    A single-node network has W_tilde = 0, so its penalty coefficients are
    zero and the VI is the centralized problem (G identically 0).
    """
    config.validate()
    net = build_topology(config.network_kind, config.m, p=config.network_p,
                         seed=config.network_seed)
    spp = _build_instance(config)
    spp.operator_bound = operator_bound_L0(spp, samples=2000,
                                           seed=config.instance_seed)
    coeffs = penalty_coefficients(spp, net, config.epsilon)
    vi = build_penalized_vi(spp, net, coeffs)
    return net, spp, coeffs, vi


def _gap_oracle(spp: StackedSPP) -> Callable[[np.ndarray], np.ndarray]:
    """Exact gap on node-averaged blocks, for every family the harness builds.

    The oracle acts row-wise on stacked points (..., dim), as the family's
    gap function does on node averages."""
    if spp.meta.get("family") == "matrix_game":
        A_bar = spp.meta["A_bar"]

        def game_gap(z: np.ndarray) -> np.ndarray:
            X, Y = spp.split(z)
            return exact_gap_matrix_game(A_bar, X.mean(axis=-2), Y.mean(axis=-2))

        return game_gap

    def l1_gap(z: np.ndarray) -> np.ndarray:
        X, Y = spp.split(z)
        return l1_saddle_gap(spp, X.mean(axis=-2), Y.mean(axis=-2))

    return l1_gap


def pick_N(L: float, omega_sq: float, target: float) -> int:
    """Smallest N with 6 L omega_sq / N^2 <= target, up to N = ``MAX_N``; a
    larger N is a configuration error. L and omega_sq must be finite and
    nonnegative (ParameterError), and target finite and positive
    (ConfigurationError)."""
    for name, v in (("L", L), ("omega_sq", omega_sq)):
        if not (is_real(v) and v >= 0):
            raise ParameterError(f"pick_N needs a finite {name} >= 0, got {v!r}")
    if not (is_real(target) and target > 0):
        raise ConfigurationError(f"pick_N needs a finite accuracy target > 0, got {target!r}")
    num = 6.0 * L * omega_sq
    if not num / target <= float(MAX_N) ** 2:   # also rejects inf
        raise ConfigurationError(
            f"config field 'run.epsilon' is too small: 6 L omega_sq / target = "
            f"{num / target!r} needs N > {MAX_N}")
    n = math.isqrt(max(0, math.ceil(num / target) - 1)) + 1
    while num / (n * n) > target:
        n += 1
    while n > 1 and num / ((n - 1) * (n - 1)) <= target:
        n -= 1
    return n


def run_experiment(config: RunConfig) -> RunReport:
    """Execute the full pipeline for one config; see the module docstring."""
    t0 = time.perf_counter()
    net, spp, coeffs, vi = build_pipeline(config)
    z0 = spp.center()
    omega_sq = omega_sq_bound(vi.set_geometry, z0)

    stochastic = config.mode == "stochastic" and config.sigma > 0.0
    target = config.p_confidence * config.epsilon if stochastic else config.epsilon
    N = config.N_override if config.N_override is not None \
        else pick_N(vi.L, omega_sq, target)

    # z_bar_k goes into row (k - 1) mod B of the block; see the module
    # docstring
    dim = vi.set_geometry.dim
    block = np.empty((min(N, max(1, 4 * CONSENSUS_CHUNK // dim)), dim))
    gap_fn = _gap_oracle(spp)
    cut = spp.m * spp.d_x
    gaps, cons_x, cons_y = [], [], []

    def columns(Z: np.ndarray) -> None:
        gaps.extend(gap_fn(Z).tolist())
        cons_x.extend(consensus_violation(net, Z[:, :cut]).tolist())
        cons_y.extend(consensus_violation(net, Z[:, cut:]).tolist())

    def observe(k: int, z_bar: np.ndarray) -> None:
        row = (k - 1) % len(block)
        block[row] = z_bar
        if row == len(block) - 1:
            columns(block)

    if stochastic:
        schedule = stochastic_schedule(vi.L, vi.M, config.sigma, omega_sq, N)
        problem = replace(vi, H=make_stochastic_oracle(vi.H, config.noise_kind, config.sigma,
                                                       dim, config.seed))
    else:
        schedule = deterministic_schedule(vi.L, vi.M, N)
        problem = vi
    mps_run(problem, schedule, z0, observer=observe)
    if N % len(block):
        columns(block[:N % len(block)])
    trace = RunTrace(schedule.T.tolist(), gaps, cons_x, cons_y)

    if stochastic:
        raw_T = stochastic_T_raw(vi.L, vi.M, config.sigma, omega_sq, N)
        predicted_gap = (6.0 * vi.L * omega_sq / N ** 2
                         + 2.5 * config.sigma ** 2 / vi.M + vi.delta) \
            if vi.M > 0 else math.inf
    else:
        raw_T = deterministic_T_raw(vi.L, vi.M, N)
        predicted_gap = 6.0 * vi.L * omega_sq / N ** 2 + vi.delta
    predicted_H = float(2.0 * np.sum(raw_T + 1.0))

    r_alpha = math.sqrt(coeffs.R_alpha_sq)
    r_beta = math.sqrt(coeffs.R_beta_sq)
    report = RunReport(
        family=config.family,
        mode="stochastic" if stochastic else "deterministic",
        m=spp.m,
        epsilon=config.epsilon,
        N=N,
        L=vi.L,
        M=vi.M,
        delta=vi.delta,
        L0=float(spp.operator_bound),
        sigma=config.sigma if stochastic else 0.0,
        omega_sq=omega_sq,
        R_alpha_sq=coeffs.R_alpha_sq,
        R_beta_sq=coeffs.R_beta_sq,
        final_gap=gaps[-1],
        consensus_x=cons_x[-1],
        consensus_y=cons_y[-1],
        communication_rounds=N * vi.rounds_per_grad_G,
        grad_G_calls=N,
        H_calls_per_node=2 * sum(trace.inner_steps),
        predicted_gap_bound=predicted_gap,
        predicted_rounds=N * vi.rounds_per_grad_G,
        predicted_H_calls=predicted_H,
        predicted_consensus_x=4.0 * config.epsilon / r_alpha if r_alpha > 0 else math.inf,
        predicted_consensus_y=4.0 * config.epsilon / r_beta if r_beta > 0 else math.inf,
        wall_time_s=time.perf_counter() - t0,
        noise_kind=config.noise_kind if stochastic else None,
        p_confidence=config.p_confidence if stochastic else None,
        trace=trace,
    )
    return report


def emit_outputs(report: RunReport, trace: RunTrace, out_dir) -> list:
    """Write trace.csv, summary.txt and plot_data.csv into ``out_dir``.

    trace.csv ends its lines with CRLF, as the csv module's default dialect
    does; the other two end theirs with LF. Floats are written as their
    repr, and the wall-clock column, which the solver does not measure,
    as 0.0, so identical configs yield identical bytes. The grad_G_calls
    and H_calls columns are the cumulative counts k and 2 (T_1 + ... + T_k).
    Columns of unequal length raise ValueError before any file is written.
    Returns the written paths.
    """
    rows = ["k,inner_steps,grad_G_calls,H_calls,gap_estimate,consensus_x,consensus_y,wall_ms"]
    plot = ["k,gap,consensus_x,consensus_y"]
    n_h = 0
    for k, (steps, gap, cx, cy) in enumerate(zip(
            trace.inner_steps, trace.gap_estimate, trace.consensus_x, trace.consensus_y,
            strict=True), start=1):
        n_h += 2 * steps
        metrics = f"{float(gap)!r},{float(cx)!r},{float(cy)!r}"
        rows.append(f"{k},{steps},{k},{n_h},{metrics},0.0")
        plot.append(f"{k},{metrics}")
    return write_files(out_dir, {"trace.csv": "\r\n".join(rows) + "\r\n",
                                 "summary.txt": "\n".join(report.summary_lines()) + "\n",
                                 "plot_data.csv": "\n".join(plot) + "\n"})


def write_files(out_dir, texts: dict) -> list:
    """Write each ``name: text`` of ``texts`` to ``out_dir/name``, creating
    ``out_dir`` if needed, with the text's line endings kept as they are.
    Returns the written paths; a failure raises OSError naming the path."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise OSError(f"cannot create output directory {out_dir}: {e}")
    paths = []
    for name, text in texts.items():
        path = os.path.join(out_dir, name)
        try:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        except OSError as e:
            raise OSError(f"failed writing {path}: {e}")
        paths.append(path)
    return paths

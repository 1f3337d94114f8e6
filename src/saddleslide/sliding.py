"""Mirror-prox sliding: outer/inner iteration, parameter schedules, gap function.

The method solves the monotone VI built from a convex-concave saddle problem
min_x max_y G_x-part + F: find z* with <grad G(z*) + H(z*), z - z*> >= 0,
where grad G is L-smooth and H is handled through an inexact (M, delta)
oracle. One outer iteration k freezes grad G at the sliding point and runs
T_k inner steps, each made of two two-anchor prox calls; the outer ergodic
point carries the O(L Omega^2 / N^2 + delta) guarantee, with delta entering
additively (weight exactly 1) rather than accumulating.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, DomainError, ParameterError
from .geometry import (GeometrySpec, _anchor_term, _as_vector, _bind_prox, _outer_term,
                       _prox_kernel)

TRACE_COLUMNS = ("k", "inner_steps", "grad_G_calls", "H_calls",
                 "gap_estimate", "consensus_x", "consensus_y", "wall_ms")


@dataclass
class VIProblem:
    """Oracle bundle for one variational inequality.

    ``grad_G`` must be the gradient of the convex potential ``value_G`` with
    Lipschitz constant ``L``; ``H`` is the (possibly nonsmooth) monotone
    operator satisfying the inexact-oracle inequality with constants
    ``(M, delta)``. ``H_stochastic(z, rng)`` is an unbiased noisy version with
    variance at most ``sigma**2``; ``L0`` optionally records a uniform bound
    on ``||H||`` (then (M, delta) may be synthesized as M = L0^2/(2 eps),
    delta = 2 eps). ``rounds_per_grad_G`` tells the solver how many
    communication rounds one grad_G evaluation costs (0 for centralized
    problems). ``H`` and ``H_stochastic`` are handed the solver's work
    buffers, which later inner steps overwrite: they must copy an argument
    they keep, and must not write into it.
    """

    set_geometry: GeometrySpec
    grad_G: Callable[[np.ndarray], np.ndarray]
    L: float
    H: Callable[[np.ndarray], np.ndarray]
    M: float
    delta: float
    sigma: float = 0.0
    L0: Optional[float] = None
    value_G: Optional[Callable[[np.ndarray], float]] = None
    H_stochastic: Optional[Callable[[np.ndarray, np.random.Generator], np.ndarray]] = None
    rounds_per_grad_G: int = 0

    def __post_init__(self):
        for name in ("L", "M", "delta", "sigma"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ParameterError(f"VIProblem.{name} must be a finite nonnegative real")
        if self.L0 is not None and not (np.isfinite(self.L0) and self.L0 >= 0):
            raise ParameterError("VIProblem.L0 must be a finite nonnegative real")


@dataclass
class SlidingSchedule:
    """Per-outer-iteration parameters gamma_k, beta_k, T_k, eta_k^t, Gamma_k.

    Arrays are 0-indexed storage for the 1-indexed sequences (entry k-1 holds
    the value at outer iteration k). ``eta1`` holds the first inner step
    weight eta_k^1; the later ones follow as eta_k^t = beta_k (t-1) + eta_k^1,
    which ``eta(k, t)`` evaluates with 1-indexed arguments (integers, or
    integer arrays evaluated elementwise).
    """

    N: int
    gamma: np.ndarray
    beta: np.ndarray
    T: np.ndarray
    eta1: np.ndarray
    Gamma: np.ndarray
    L: float
    M: float

    def eta(self, k, t):
        return self.beta[k - 1] * (t - 1) + self.eta1[k - 1]

    def validate(self) -> None:
        n = self.N
        if not (n >= 1 and len(self.gamma) == n and len(self.beta) == n
                and len(self.T) == n and len(self.eta1) == n
                and len(self.Gamma) == n):
            raise ConfigurationError("schedule arrays must all have length N >= 1")
        gamma, beta, T, Gamma = self.gamma, self.beta, self.T, self.Gamma
        if abs(gamma[0] - 1.0) > 1e-12:
            raise ConfigurationError("gamma_1 must equal 1")
        if np.any(gamma < -1e-12) or np.any(gamma > 1.0 + 1e-12):
            raise ConfigurationError("gamma_k must lie in [0, 1]")
        if np.any(T < 1):
            raise ConfigurationError("T_k must be positive integers")
        if np.any(beta < self.L * gamma - 1e-9):
            raise ConfigurationError("beta_k >= L * gamma_k violated")
        if abs(Gamma[0] - 1.0) > 1e-12:
            raise ConfigurationError("Gamma_1 must equal 1")
        expected = (1.0 - gamma[1:]) * Gamma[:-1]
        if np.any(np.abs(Gamma[1:] - expected) > 1e-12 * np.maximum(1.0, np.abs(expected))):
            raise ConfigurationError("Gamma recurrence violated")
        ks = np.arange(1, n + 1)
        e1 = self.eta(ks, 1)
        if not np.all((e1 > 0) & np.isfinite(e1)):
            raise ConfigurationError("eta_k^1 must be a positive real")
        if np.any(self.M > beta + e1 + 1e-9 * max(1.0, self.M)):
            raise ConfigurationError("M <= beta_k + eta_k^t violated at t = 1")
        # The step condition eta_k^t <= beta_k + eta_k^{t-1} is not checked:
        # eta(k, t) = beta_k (t-1) + eta_k^1 makes the two sides equal by
        # construction, and at |eta| ~ 1e8 their rounding alone exceeds any
        # fixed absolute slack, so a check could only reject valid schedules.
        eta_T = self.eta(ks, T)
        # cross-iteration rate condition (equality for the shipped schedules)
        lhs = gamma[1:] / Gamma[1:] * (beta[1:] + e1[1:] / T[1:])
        rhs = gamma[:-1] * (beta[:-1] + eta_T[:-1]) / (Gamma[:-1] * T[:-1])
        if np.any(lhs > rhs * (1.0 + 1e-9) + 1e-12):
            raise ConfigurationError("cross-iteration schedule condition violated")


def _schedule_core(L: float, M: float, N: int, T: np.ndarray) -> SlidingSchedule:
    ks = np.arange(1, N + 1, dtype=float)
    gamma = 2.0 / (ks + 1.0)
    beta = 2.0 * L / ks
    Gamma = 2.0 / (ks * (ks + 1.0))
    T_arr = T.astype(np.int64)
    sched = SlidingSchedule(N=int(N), gamma=gamma, beta=beta, T=T_arr,
                            eta1=L * T_arr / ks, Gamma=Gamma, L=float(L),
                            M=float(M))
    sched.validate()
    return sched


def _check_LMN(L: float, M: float, N: int) -> None:
    if not (np.isfinite(L) and L > 0):
        raise ParameterError("schedule needs L > 0 (formulas divide by L)")
    if not (np.isfinite(M) and M >= 0):
        raise ParameterError("schedule needs M >= 0")
    if not (isinstance(N, (int, np.integer)) and N >= 1):
        raise ParameterError("schedule needs integer N >= 1")


def deterministic_T_raw(L: float, M: float, N: int) -> np.ndarray:
    """k M / L for k = 1..N: the deterministic T_k before rounding up."""
    ks = np.arange(1, N + 1, dtype=float)
    return ks * M / L


def stochastic_T_raw(L: float, M: float, sigma: float, omega_sq: float,
                     N: int) -> np.ndarray:
    """sqrt(3) k M / L + N k^2 sigma^2 / (omega_sq L^2) for k = 1..N: the
    stochastic T_k before rounding up."""
    ks = np.arange(1, N + 1, dtype=float)
    return math.sqrt(3.0) * ks * M / L + N * ks ** 2 * sigma ** 2 / (omega_sq * L ** 2)


def deterministic_schedule(L: float, M: float, N: int) -> SlidingSchedule:
    """Schedule gamma_k = 2/(k+1), beta_k = 2L/k, T_k = ceil(k M / L),
    eta_k^t = beta_k (t-1) + L T_k / k, with T_k floored at 1.

    Yields sup_z Q(z_bar_N, z) <= 6 L Omega^2 / N^2 + delta for problems whose
    H-oracle satisfies the (M, delta) inequality.
    """
    _check_LMN(L, M, N)
    T = np.maximum(1, np.ceil(deterministic_T_raw(L, M, N))).astype(np.int64)
    return _schedule_core(L, M, N, T)


def stochastic_schedule(L: float, M: float, sigma: float, omega_sq: float,
                        N: int) -> SlidingSchedule:
    """Stochastic-variant schedule; only T_k changes:
    T_k = ceil(sqrt(3) k M / L + N k^2 sigma^2 / (omega_sq L^2)).
    """
    _check_LMN(L, M, N)
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ParameterError("schedule needs sigma >= 0")
    if not (np.isfinite(omega_sq) and omega_sq > 0):
        raise ParameterError("schedule needs omega_sq > 0")
    raw = stochastic_T_raw(L, M, sigma, omega_sq, N)
    T = np.maximum(1, np.ceil(raw)).astype(np.int64)
    return _schedule_core(L, M, N, T)


@dataclass
class RunTrace:
    """Per-outer-iteration telemetry for one solver run.

    ``grad_G_calls`` / ``H_calls`` rows are cumulative counts after outer
    iteration k. ``gap_estimate`` / ``consensus_x`` / ``consensus_y`` start as
    NaN: the solver does not know the instance-level gap oracle or the
    network. ``run_experiment`` fills each of them after the solve with one
    row-wise oracle call on ``z_bar_iterates``.

    Iterate snapshots are retained on request. Then ``z_bar_iterates`` is
    the (N, dim) array whose row k - 1 is z_bar_k, written in place by the
    solver, and ``z_bar_snapshots`` lists views of its rows;
    ``z_snapshots`` and ``z_under_snapshots`` list one array per iteration.
    """

    inner_steps: list = field(default_factory=list)
    grad_G_calls: list = field(default_factory=list)
    H_calls: list = field(default_factory=list)
    gap_estimate: list = field(default_factory=list)
    consensus_x: list = field(default_factory=list)
    consensus_y: list = field(default_factory=list)
    wall_ms: list = field(default_factory=list)
    communication_rounds: int = 0
    z_bar_snapshots: list = field(default_factory=list)
    z_snapshots: list = field(default_factory=list)
    z_under_snapshots: list = field(default_factory=list)
    z_bar_iterates: Optional[np.ndarray] = None
    final: Optional[np.ndarray] = None

    @property
    def N(self) -> int:
        return len(self.inner_steps)

    @property
    def total_grad_G(self) -> int:
        return self.grad_G_calls[-1] if self.grad_G_calls else 0

    @property
    def total_H(self) -> int:
        return self.H_calls[-1] if self.H_calls else 0


def trace_to_csv(trace: RunTrace, path) -> None:
    """Write the trace in the stable column order, header always included."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_COLUMNS)
        for i in range(trace.N):
            w.writerow([
                i + 1,
                trace.inner_steps[i],
                trace.grad_G_calls[i],
                trace.H_calls[i],
                repr(float(trace.gap_estimate[i])),
                repr(float(trace.consensus_x[i])),
                repr(float(trace.consensus_y[i])),
                repr(float(trace.wall_ms[i])),
            ])


def _check_run_inputs(problem: VIProblem, schedule: SlidingSchedule,
                      z0) -> np.ndarray:
    geom = problem.set_geometry
    v0 = _as_vector(z0, geom.dim)
    if not geom.feasible_set.contains(v0):
        raise DomainError("z0 lies outside the feasible set")
    if schedule.L < problem.L - 1e-9 * max(1.0, problem.L):
        raise ConfigurationError(
            f"schedule built for L = {schedule.L}, problem needs L >= {problem.L}")
    if schedule.M < problem.M - 1e-9 * max(1.0, problem.M):
        raise ConfigurationError(
            f"schedule built for M = {schedule.M}, problem needs M >= {problem.M}")
    return v0


def _sliding_loop(problem: VIProblem, schedule: SlidingSchedule, z0: np.ndarray,
                  h_oracle: Callable[[np.ndarray], np.ndarray],
                  retain_iterates: bool) -> tuple[np.ndarray, RunTrace]:
    geom = problem.set_geometry
    fset = geom.feasible_set
    trace = RunTrace()
    # One workspace per solve. The inner loop writes z_tilde_k^t into z_tilde
    # and z_k^t into the other buffer of the rotating pair (cur, nxt), each
    # through a prox map bound to that buffer once here; ``anchor`` holds the
    # anchor term both prox calls of a step share, ``gh`` holds grad G + H.
    # eta_k^t and beta_k + eta_k^t are passed as 0-d arrays, which numpy
    # does not convert on every call as it does Python floats. ``pair``
    # holds z_bar_k and z_prev for the one feasibility check per outer
    # iteration.
    z_tilde, z_a, z_b, z_tilde_sum, anchor, arg, gh = (np.empty(geom.dim) for _ in range(7))
    eta, w = np.empty(()), np.empty(())
    pair = np.empty((2, geom.dim))
    into_tilde = _bind_prox(geom, arg, z_tilde)
    cur, nxt = (z_a, _bind_prox(geom, arg, z_a)), (z_b, _bind_prox(geom, arg, z_b))
    np.copyto(z_a, z0)
    z_bar = z0.copy()
    # z_bar_k is written into row k - 1 of one (N, dim) array when retained
    rows = np.empty((schedule.N, geom.dim)) if retain_iterates else None
    trace.z_bar_iterates = rows
    z_prev = z_a
    n_grad = 0
    n_h = 0
    for k in range(1, schedule.N + 1):
        t0 = time.perf_counter()
        gk = schedule.gamma[k - 1]
        bk = float(schedule.beta[k - 1])
        e1 = float(schedule.eta1[k - 1])
        tk = int(schedule.T[k - 1])
        z_under = (1.0 - gk) * z_bar + gk * z_prev
        g_cached = problem.grad_G(z_under)  # constant across the inner loop
        n_grad += 1
        trace.communication_rounds += problem.rounds_per_grad_G
        outer = _outer_term(geom, z_prev, bk)  # z_prev anchors every inner prox
        z_tilde_sum.fill(0.0)
        for t in range(1, tk + 1):
            et = bk * (t - 1) + e1  # eta_k^t, as in SlidingSchedule.eta
            eta[()] = et
            w[()] = bk + et
            z_t = cur[0]
            _anchor_term(geom, outer, eta, z_t, anchor)
            np.add(g_cached, h_oracle(z_t), gh)
            _prox_kernel(gh, anchor, w, arg, into_tilde)
            np.add(g_cached, h_oracle(z_tilde), gh)
            _prox_kernel(gh, anchor, w, arg, nxt[1])
            n_h += 2
            z_tilde_sum += z_tilde
            cur, nxt = nxt, cur
        z_bar = np.add((1.0 - gk) * z_bar, gk * (z_tilde_sum / tk),
                       out=None if rows is None else rows[k - 1])
        z_prev = cur[0]
        pair[0] = z_bar
        pair[1] = z_prev
        try:
            inside = fset.contains(pair)  # raises DomainError on a non-finite entry
        except DomainError:
            raise DomainError(f"non-finite iterate produced at outer iteration {k}") from None
        if not inside:
            raise DomainError(f"iterate left the feasible set at outer iteration {k}")
        trace.inner_steps.append(tk)
        trace.grad_G_calls.append(n_grad)
        trace.H_calls.append(n_h)
        trace.gap_estimate.append(math.nan)
        trace.consensus_x.append(math.nan)
        trace.consensus_y.append(math.nan)
        trace.wall_ms.append((time.perf_counter() - t0) * 1000.0)
        if retain_iterates:
            trace.z_bar_snapshots.append(z_bar)
            trace.z_snapshots.append(z_prev.copy())
            trace.z_under_snapshots.append(z_under)
    trace.final = z_bar.copy()
    return z_bar.copy(), trace


def mps_run(problem: VIProblem, schedule: SlidingSchedule, z0,
            retain_iterates: bool = False) -> tuple[np.ndarray, RunTrace]:
    """Run the deterministic mirror-prox sliding method.

    Parameters
    ----------
    problem : VIProblem
        Deterministic problem (``sigma`` must be 0); its ``H`` is called twice
        per inner step, its ``grad_G`` once per outer iteration (cached at the
        sliding point, which does not change within the inner loop).
    schedule : SlidingSchedule
        Typically from :func:`deterministic_schedule`.
    z0 : array
        Feasible start.

    Returns
    -------
    (z_bar_N, RunTrace)
        The ergodic output point and per-iteration telemetry.
    """
    schedule.validate()
    if problem.sigma != 0.0:
        raise ConfigurationError("mps_run requires a deterministic problem (sigma = 0)")
    v0 = _check_run_inputs(problem, schedule, z0)
    return _sliding_loop(problem, schedule, v0, problem.H, retain_iterates)


def smps_run(problem: VIProblem, schedule: SlidingSchedule, z0, seed: int,
             retain_iterates: bool = False) -> tuple[np.ndarray, RunTrace]:
    """Run the stochastic variant: identical control flow to :func:`mps_run`
    with the two inner prox calls fed fresh independent samples
    H(z_k^{t-1}; zeta) and H(z_tilde_k^t; zeta'). Fully reproducible per seed.
    """
    schedule.validate()
    if problem.H_stochastic is None:
        raise ConfigurationError("smps_run needs problem.H_stochastic")
    v0 = _check_run_inputs(problem, schedule, z0)
    rng = np.random.default_rng(seed)

    def h_noisy(z: np.ndarray) -> np.ndarray:
        return problem.H_stochastic(z, rng)

    return _sliding_loop(problem, schedule, v0, h_noisy, retain_iterates)


def q_gap(problem: VIProblem, z_bar, z) -> float:
    """Gap function Q(z_bar, z) = G(z_bar) - G(z) + <H(z), z_bar - z>."""
    geom = problem.set_geometry
    v1 = _as_vector(z_bar, geom.dim)
    v2 = _as_vector(z, geom.dim)
    if not geom.feasible_set.contains(v1):
        raise DomainError("z_bar lies outside the feasible set")
    if not geom.feasible_set.contains(v2):
        raise DomainError("z lies outside the feasible set")
    if problem.value_G is None:
        raise ConfigurationError("q_gap needs problem.value_G")
    return float(problem.value_G(v1) - problem.value_G(v2)
                 + np.dot(problem.H(v2), v1 - v2))

"""Mirror-prox sliding: outer/inner iteration and parameter schedules.

The method solves the monotone variational inequality of a convex-concave
saddle problem whose operator splits as grad G + H: find z* in Z with
<grad G(z*) + H(z*), z - z*> >= 0 for every z in Z. G is a convex potential
with L-Lipschitz gradient, and H is a monotone, possibly nonsmooth operator
reached through an inexact (M, delta) oracle. One outer iteration k freezes
grad G at the sliding point and runs T_k inner steps, each made of two
two-anchor prox calls; the outer ergodic point carries the
O(L Omega^2 / N^2 + delta) guarantee, with delta entering additively
(weight exactly 1) rather than accumulating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, DomainError, ParameterError
from .geometry import (GeometrySpec, _anchor_term, _as_vector, _bind_prox, _outer_term,
                       _prox_kernel)


@dataclass
class VIProblem:
    """Oracle bundle for one variational inequality.

    ``grad_G`` is the gradient of the convex potential ``value_G``, with
    Lipschitz constant ``L``. ``H`` is the (possibly nonsmooth) monotone
    operator, and ``(M, delta)`` are the constants of its inexact-oracle
    inequality. ``H_stochastic(z, rng)``, when set, is an unbiased noisy
    version of ``H`` for :func:`smps_run`; its variance bound sigma^2 enters
    only through the schedule (:func:`stochastic_schedule`).
    ``rounds_per_grad_G`` tells the solver how many communication rounds one
    grad_G evaluation costs (0 for centralized problems). ``H`` and
    ``H_stochastic`` are handed the solver's work buffers, which later inner
    steps overwrite: they must copy an argument they keep, and must not write
    into it.
    """

    set_geometry: GeometrySpec
    grad_G: Callable[[np.ndarray], np.ndarray]
    L: float
    H: Callable[[np.ndarray], np.ndarray]
    M: float
    delta: float
    value_G: Optional[Callable[[np.ndarray], float]] = None
    H_stochastic: Optional[Callable[[np.ndarray, np.random.Generator], np.ndarray]] = None
    rounds_per_grad_G: int = 0

    def __post_init__(self):
        for name in ("L", "M", "delta"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ParameterError(f"VIProblem.{name} must be a finite nonnegative real")


@dataclass
class SlidingSchedule:
    """Inner-loop lengths T_k of one sliding run, with the L and M they were
    built for; entry k - 1 of ``T`` holds T_k, for k = 1..N.

    The other parameters are closed forms in k, which the solver evaluates
    as it goes:

        gamma_k = 2/(k+1),  beta_k = 2L/k,  Gamma_k = 2/(k(k+1)),
        eta_k^t = beta_k (t-1) + L T_k / k.

    They meet the theorem's conditions for every choice of T_k >= 1:

    - gamma_1 = 2/2 = 1 and Gamma_1 = 2/2 = 1;
    - beta_k = 2L/k >= 2L/(k+1) = L gamma_k;
    - Gamma_k = (1 - gamma_k) Gamma_{k-1}, since
      (k-1)/(k+1) * 2/((k-1) k) = 2/(k(k+1));
    - eta_k^t = beta_k + eta_k^{t-1}, so the step condition holds with
      equality;
    - the cross-iteration condition
      gamma_k/Gamma_k (beta_k + eta_k^1/T_k)
      <= gamma_{k-1} (beta_{k-1} + eta_{k-1}^{T_{k-1}}) / (Gamma_{k-1} T_{k-1})
      reads 3L on both sides: gamma_k/Gamma_k = k and
      beta_k + eta_k^1/T_k = 3L/k on the left, and on the right
      beta_{k-1} + eta_{k-1}^{T_{k-1}} = 3L T_{k-1}/(k-1).

    So the only condition that depends on T is M <= beta_k + eta_k^1
    = L (2 + T_k)/k, which :meth:`validate` checks together with the types.
    """

    L: float
    M: float
    T: np.ndarray

    @property
    def N(self) -> int:
        return len(self.T)

    def validate(self) -> None:
        L, M, T = self.L, self.M, self.T
        if not (np.isfinite(L) and L > 0):
            raise ConfigurationError("schedule needs a finite L > 0")
        if not (np.isfinite(M) and M >= 0):
            raise ConfigurationError("schedule needs a finite M >= 0")
        if not (isinstance(T, np.ndarray) and T.ndim == 1 and T.size >= 1
                and np.issubdtype(T.dtype, np.integer)):
            raise ConfigurationError("T must be a 1-D integer array of N >= 1 entries")
        if T.min() < 1:
            raise ConfigurationError("T_k must be positive integers")
        ks = np.arange(1, T.size + 1, dtype=float)
        if np.any(M > 2.0 * L / ks + L * T / ks + 1e-9 * max(1.0, M)):
            raise ConfigurationError("M <= beta_k + eta_k^t violated at t = 1")


def _check_LMN(L: float, M: float, N: int) -> None:
    if not (np.isfinite(L) and L > 0):
        raise ParameterError("schedule needs L > 0 (formulas divide by L)")
    if not (np.isfinite(M) and M >= 0):
        raise ParameterError("schedule needs M >= 0")
    if not (isinstance(N, (int, np.integer)) and not isinstance(N, bool) and N >= 1):
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
    sched = SlidingSchedule(L=float(L), M=float(M), T=T)
    sched.validate()
    return sched


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
    sched = SlidingSchedule(L=float(L), M=float(M), T=T)
    sched.validate()
    return sched


@dataclass
class RunTrace:
    """Per-outer-iteration telemetry for one solver run.

    ``grad_G_calls`` / ``H_calls`` rows are cumulative counts after outer
    iteration k. The solver leaves ``gap_estimate`` / ``consensus_x`` /
    ``consensus_y`` empty, since it knows neither the instance-level gap
    oracle nor the network; ``run_experiment`` assigns them, one value per k,
    from the iterates its observer streams (see :func:`mps_run`).

    The solver keeps no iterates. ``z_bar_snapshots``, ``z_snapshots`` and
    ``z_under_snapshots`` stay empty; only the benchmark in ``perfbench/``
    reads them, summing their ``nbytes`` as its retained-bytes metric.
    """

    inner_steps: list = field(default_factory=list)
    grad_G_calls: list = field(default_factory=list)
    H_calls: list = field(default_factory=list)
    gap_estimate: list = field(default_factory=list)
    consensus_x: list = field(default_factory=list)
    consensus_y: list = field(default_factory=list)
    communication_rounds: int = 0
    z_bar_snapshots: list = field(default_factory=list)
    z_snapshots: list = field(default_factory=list)
    z_under_snapshots: list = field(default_factory=list)

    @property
    def N(self) -> int:
        return len(self.inner_steps)

    @property
    def total_grad_G(self) -> int:
        return self.grad_G_calls[-1] if self.grad_G_calls else 0

    @property
    def total_H(self) -> int:
        return self.H_calls[-1] if self.H_calls else 0


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
                  observer: Optional[Callable[[int, np.ndarray], None]]
                  ) -> tuple[np.ndarray, RunTrace]:
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
    z_prev = z_a
    n_grad = 0
    n_h = 0
    L = schedule.L
    for k, tk in enumerate(schedule.T.tolist(), start=1):
        # the closed forms of SlidingSchedule
        gk = 2.0 / (k + 1.0)
        bk = 2.0 * L / k
        e1 = L * tk / k  # eta_k^1
        z_under = (1.0 - gk) * z_bar + gk * z_prev
        g_cached = problem.grad_G(z_under)  # constant across the inner loop
        n_grad += 1
        trace.communication_rounds += problem.rounds_per_grad_G
        outer = _outer_term(geom, z_prev, bk)  # z_prev anchors every inner prox
        z_tilde_sum.fill(0.0)
        for t in range(1, tk + 1):
            et = bk * (t - 1) + e1  # eta_k^t
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
        z_bar = (1.0 - gk) * z_bar + gk * (z_tilde_sum / tk)
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
        if observer is not None:
            observer(k, z_bar)
    return z_bar, trace


def mps_run(problem: VIProblem, schedule: SlidingSchedule, z0,
            observer: Optional[Callable[[int, np.ndarray], None]] = None
            ) -> tuple[np.ndarray, RunTrace]:
    """Run the deterministic mirror-prox sliding method.

    Parameters
    ----------
    problem : VIProblem
        Its ``H`` is called twice per inner step, its ``grad_G`` once per outer iteration (cached at the
        sliding point, which does not change within the inner loop).
    schedule : SlidingSchedule
        Typically from :func:`deterministic_schedule`.
    z0 : array
        Feasible start.
    observer : callable, optional
        Called as ``observer(k, z_bar_k)`` once per outer iteration k, after
        the feasibility check. ``z_bar_k`` must not be written into, and an
        observer that keeps it past the call must copy it, since it may be
        the returned point.

    Returns
    -------
    (z_bar_N, RunTrace)
        The ergodic output point and per-iteration telemetry.
    """
    schedule.validate()
    v0 = _check_run_inputs(problem, schedule, z0)
    return _sliding_loop(problem, schedule, v0, problem.H, observer)


def smps_run(problem: VIProblem, schedule: SlidingSchedule, z0, seed: int,
             observer: Optional[Callable[[int, np.ndarray], None]] = None
             ) -> tuple[np.ndarray, RunTrace]:
    """Run the stochastic variant: identical control flow to :func:`mps_run`
    with the two inner prox calls fed fresh independent samples
    H(z_k^{t-1}; zeta) and H(z_tilde_k^t; zeta'). Fully reproducible per seed.
    ``observer`` is called as in :func:`mps_run`.
    """
    schedule.validate()
    if problem.H_stochastic is None:
        raise ConfigurationError("smps_run needs problem.H_stochastic")
    v0 = _check_run_inputs(problem, schedule, z0)
    rng = np.random.default_rng(seed)

    def h_noisy(z: np.ndarray) -> np.ndarray:
        return problem.H_stochastic(z, rng)

    return _sliding_loop(problem, schedule, v0, h_noisy, observer)


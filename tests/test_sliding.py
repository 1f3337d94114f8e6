"""Tests for the sliding solver: schedules, runs, oracle calls."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddleslide import (
    ENTROPY_CLIP,
    MATCHING_PENNIES,
    NEGATIVE_ENTROPY,
    Box,
    ConfigurationError,
    DomainError,
    GeometrySpec,
    ParameterError,
    ProductSet,
    SQUARED_EUCLIDEAN,
    Simplex,
    VIProblem,
    deterministic_schedule,
    exact_gap_matrix_game,
    make_matrix_game,
    make_stochastic_oracle,
    mps_run,
    omega_sq_bound,
    stochastic_schedule,
)
from saddleslide import sliding
from saddleslide.geometry import _project_simplex_rows
from saddleslide.harness import NOISE_BLOCK


def box_geometry(dim, half_width=1.0):
    return GeometrySpec(SQUARED_EUCLIDEAN,
                        Box(-half_width * np.ones(dim), half_width * np.ones(dim)))


def quadratic_problem(dim=2, half_width=1.0):
    """G = 0.5 ||z||^2 on a box, H identically zero: pure gradient sliding."""
    return VIProblem(
        set_geometry=box_geometry(dim, half_width),
        grad_G=lambda z: z,
        L=1.0,
        H=lambda z: np.zeros(dim),
        M=0.0,
        delta=0.0,
        value_G=lambda z: 0.5 * float(z @ z),
    )


class TestDeterministicSchedule:
    def test_frozen_values(self):
        sched = deterministic_schedule(L=2.0, M=10.0, N=3)
        assert list(sched.T) == [5, 10, 15]
        assert sched.T.dtype == np.int64
        assert (len(sched.T), sched.L, sched.M) == (3, 2.0, 10.0)

    def test_T_floors_at_one(self):
        sched = deterministic_schedule(L=5.0, M=0.0, N=4)
        assert list(sched.T) == [1, 1, 1, 1]

    def test_gamma_one_at_first_iteration(self):
        # gamma_1 = 1: the first sliding point (1 - gamma_1) z_bar_0 +
        # gamma_1 z_prev, grad_G's first argument, is the start z0, bit for bit
        rec = Recorder()
        z0 = np.array([0.7, -0.3])
        mps_run(rec.wrap(quadratic_problem()), deterministic_schedule(1.0, 1.0, 7), z0)
        assert _bits(rec.grad_G_args[0]) == _bits(z0)

    @pytest.mark.parametrize("L,M,N", [(1.0, 0.0, 1), (2.0, 10.0, 50),
                                       (0.5, 3.0, 17), (100.0, 1.0, 9)])
    def test_validate_accepts_shipped_schedules(self, L, M, N):
        deterministic_schedule(L, M, N).validate()

    @settings(max_examples=40, deadline=None)
    @given(L=st.floats(0.01, 1e4), M=st.floats(0.0, 1e4),
           N=st.integers(1, 60))
    def test_validate_accepts_random_parameters(self, L, M, N):
        deterministic_schedule(L, M, N).validate()

    @pytest.mark.parametrize("L,M,N", [(0.0, 1.0, 3), (-1.0, 1.0, 3),
                                       (1.0, -0.5, 3), (1.0, 1.0, 0)])
    def test_rejects_bad_parameters(self, L, M, N):
        with pytest.raises(ParameterError):
            deterministic_schedule(L, M, N)

    def test_rejects_a_bool_N(self):
        with pytest.raises(ParameterError):
            deterministic_schedule(1.0, 1.0, True)
        with pytest.raises(ParameterError):
            stochastic_schedule(1.0, 1.0, 0.1, 1.0, True)

    def test_tampered_schedules_fail_validation(self):
        base = deterministic_schedule(2.0, 10.0, 4)
        s = deterministic_schedule(2.0, 10.0, 4)
        s.T = base.T.copy()
        s.T[2] = 0
        with pytest.raises(ConfigurationError):
            s.validate()
        s.T = base.T.astype(float)
        with pytest.raises(ConfigurationError):
            s.validate()
        s.T = base.T[:0]
        with pytest.raises(ConfigurationError):
            s.validate()
        # beta_1 + eta_1^1 = 2L + L T_1 = 3 at L = 1, T_1 = 1
        sliding.SlidingSchedule(L=1.0, M=3.0, T=np.array([1])).validate()
        with pytest.raises(ConfigurationError):
            sliding.SlidingSchedule(L=1.0, M=3.5, T=np.array([1])).validate()
        for L, M in ((0.0, 1.0), (np.inf, 1.0), (1.0, -1.0), (1.0, np.nan)):
            with pytest.raises(ConfigurationError):
                sliding.SlidingSchedule(L=L, M=M, T=base.T.copy()).validate()

    def test_validate_accepts_huge_inner_step_weights(self):
        # eta_k^t - eta_k^{t-1} = beta_k by construction, but at M / L ~ 4.5e6
        # the weights reach ~1e8, where rounding alone exceeds an absolute
        # 1e-9; the schedule is valid and must pass
        sched = deterministic_schedule(7.3, 3.3e7, 40)
        sched.validate()
        assert sched.T[-1] == 180821918
        # the largest inner loops stop at 2**62, past which int64 would wrap
        assert deterministic_schedule(1.0, 2.0 ** 61, 1).T.tolist() == [2 ** 61]

    @settings(max_examples=60, deadline=None)
    @given(L=st.floats(0.01, 1e3),
           T=st.lists(st.integers(1, 300), min_size=2, max_size=25),
           u=st.floats(0.0, 1.0))
    def test_closed_forms_meet_the_theorem_conditions(self, L, T, u):
        gamma, beta, Gamma, eta = _closed_forms(L, T)
        M = u * min(b + e[0] for b, e in zip(beta, eta))
        assert _meets_conditions(L, M, T, gamma, beta, Gamma, eta)
        sliding.SlidingSchedule(L=L, M=M, T=np.array(T)).validate()
        # the checker can fail: beta_k = L/k breaks beta_k >= L gamma_k at
        # k = 2, and gamma_k = 1/k breaks the Gamma recurrence at k = 2
        mutants = (_closed_forms(L, T, beta=lambda L, k: L / k),
                   _closed_forms(L, T, gamma=lambda k: 1.0 / k))
        for mutant in mutants:
            assert not _meets_conditions(L, M, T, *mutant)


def _closed_forms(L, T, gamma=lambda k: 2.0 / (k + 1.0), beta=lambda L, k: 2.0 * L / k):
    """SlidingSchedule's gamma_k, beta_k, Gamma_k and the weights
    eta_k^1..eta_k^{T_k} as lists over k = 1..N."""
    ks = range(1, len(T) + 1)
    g = [gamma(k) for k in ks]
    b = [beta(L, k) for k in ks]
    G = [2.0 / (k * (k + 1.0)) for k in ks]
    eta = [b[k - 1] * np.arange(T[k - 1]) + L * T[k - 1] / k for k in ks]
    return g, b, G, eta


def _meets_conditions(L, M, T, gamma, beta, Gamma, eta, rtol=1e-9):
    """The theorem's schedule conditions, checked one k at a time."""
    def le(a, b):
        return np.all(a <= b + rtol * np.maximum(1.0, np.abs(b)))

    if abs(gamma[0] - 1.0) > rtol or abs(Gamma[0] - 1.0) > rtol:
        return False
    for i, (g, b, G, e, t) in enumerate(zip(gamma, beta, Gamma, eta, T)):
        if not (t >= 1 and len(e) == t and 0.0 <= g <= 1.0 and e[0] > 0):
            return False
        if not (le(L * g, b) and le(M, b + e[0]) and le(e[1:], b + e[:-1])):
            return False
        if i == 0:
            continue
        if abs(G - (1.0 - g) * Gamma[i - 1]) > rtol * G:
            return False
        lhs = g / G * (b + e[0] / t)
        rhs = gamma[i - 1] * (beta[i - 1] + eta[i - 1][-1]) / (Gamma[i - 1] * T[i - 1])
        if not le(lhs, rhs):
            return False
    return True


class TestStochasticSchedule:
    def test_frozen_values(self):
        # sigma = 0 keeps only the sqrt(3) k M / L term
        sched = stochastic_schedule(L=2.0, M=10.0, sigma=0.0, omega_sq=1.0, N=3)
        assert sched.T[2] == 26
        # M = 0 keeps only the variance term N k^2 sigma^2 / (omega_sq L^2)
        sched = stochastic_schedule(L=1.0, M=0.0, sigma=1.0, omega_sq=1.0, N=2)
        assert sched.T[1] == 8
        assert sched.T[0] == 2

    def test_inner_loops_never_shorter_than_deterministic(self):
        det = deterministic_schedule(2.0, 10.0, 12)
        sto = stochastic_schedule(2.0, 10.0, 0.3, 1.5, 12)
        assert np.all(sto.T >= det.T)

    def test_rejects_bad_noise_parameters(self):
        with pytest.raises(ParameterError):
            stochastic_schedule(1.0, 1.0, -0.1, 1.0, 3)
        with pytest.raises(ParameterError):
            stochastic_schedule(1.0, 1.0, 0.5, 0.0, 3)


@pytest.mark.parametrize("build,args", [
    (deterministic_schedule, (1.0, 1e300, 3)),
    (deterministic_schedule, (1.0, 2.0 ** 62, 1)),
    (stochastic_schedule, (1.0, 1.0, 1e200, 1.0, 3)),  # sigma^2 overflows
    (stochastic_schedule, (1.0, 1.0, 1e100, 1.0, 3)),
    (stochastic_schedule, (1e200, 1.0, 1e200, 1.0, 3)),  # inf / inf
], ids=["det-huge-M", "det-2**62", "sto-sigma-1e200", "sto-sigma-1e100", "sto-nan"])
def test_inner_loops_past_the_int64_range_raise_parameter_error(build, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="T_k"):
            build(*args)


class TestDeterministicRun:
    def test_quadratic_obeys_rate_bound_at_every_iteration(self):
        # sup_z Q(z_bar, z) = 0.5 ||z_bar||^2 here; the schedule prefix at k
        # equals the k-iteration schedule, so the bound holds for every k.
        prob = quadratic_problem(dim=2, half_width=1.0)
        z0 = np.array([1.0, 1.0])
        omega_sq = omega_sq_bound(prob.set_geometry, z0)
        assert omega_sq == pytest.approx(4.0)
        sched = deterministic_schedule(prob.L, prob.M, N=16)
        rec = Recorder()
        final = mps_run(prob, sched, z0, observer=rec.observer)
        assert len(rec.z_bar) == 16
        for k, zb in enumerate(rec.z_bar, start=1):
            assert 0.5 * float(zb @ zb) <= 6.0 * prob.L * omega_sq / k ** 2 + 1e-12
        assert _bits(final) == _bits(rec.z_bar[-1])

    def test_matching_pennies_reaches_small_gap(self):
        spp = make_matrix_game([MATCHING_PENNIES.copy()])
        prob = VIProblem(
            set_geometry=spp.stacked_geometry(),
            grad_G=lambda z: np.zeros(4),
            L=2.0,
            H=spp.H,
            M=2.0,
            delta=0.0,
            value_G=lambda z: 0.0,
        )
        z0 = np.array([0.9, 0.1, 0.3, 0.7])
        omega_sq = omega_sq_bound(prob.set_geometry, z0)
        # smallest N with 12 omega_sq / N^2 <= 1e-2
        N = 40
        assert 6.0 * prob.L * omega_sq / N ** 2 <= 1e-2
        sched = deterministic_schedule(prob.L, prob.M, N)
        final = mps_run(prob, sched, z0)
        X, Y = spp.split(final)
        gap = exact_gap_matrix_game(spp.meta["A_bar"], X[0], Y[0])
        assert 0.0 <= gap <= 1e-2

    def test_oracle_call_counts_match_schedule(self):
        calls = {"g": 0, "h": 0}

        def grad_G(z):
            calls["g"] += 1
            return z

        def H(z):
            calls["h"] += 1
            return np.zeros(2)

        prob = VIProblem(set_geometry=box_geometry(2), grad_G=grad_G, L=1.0,
                         H=H, M=3.0, delta=0.0)
        sched = deterministic_schedule(1.0, 3.0, 6)
        mps_run(prob, sched, np.zeros(2))
        assert calls["g"] == len(sched.T) == 6
        assert calls["h"] == 2 * int(sched.T.sum())

    def test_rejects_infeasible_start(self):
        prob = quadratic_problem(half_width=1.0)
        with pytest.raises(DomainError):
            mps_run(prob, deterministic_schedule(1.0, 0.0, 2),
                    np.array([5.0, 0.0]))


class TestStochasticRun:
    SIGMA = 0.2

    def _noisy_problem(self, seed, sigma=SIGMA):
        # the stochastic variant is mps_run on a problem whose H is noisy
        prob = quadratic_problem()
        return replace(prob, H=make_stochastic_oracle(prob.H, "uniform", sigma, 2, seed))

    def test_same_seed_reproduces_bitwise(self):
        prob = self._noisy_problem(42)
        sched = stochastic_schedule(prob.L, prob.M, self.SIGMA, 4.0, 8)
        z0 = np.array([1.0, -1.0])
        f1 = mps_run(prob, sched, z0)
        f2 = mps_run(self._noisy_problem(42), sched, z0)
        assert np.array_equal(f1, f2)
        f3 = mps_run(self._noisy_problem(43), sched, z0)
        assert not np.array_equal(f1, f3)

    def test_zero_noise_matches_deterministic_run_bitwise(self):
        prob = quadratic_problem()
        sched = deterministic_schedule(prob.L, prob.M, 10)
        z0 = np.array([0.7, -0.2])
        f_det = mps_run(prob, sched, z0)
        f_sto = mps_run(self._noisy_problem(0, sigma=0.0), sched, z0)
        assert np.array_equal(f_det, f_sto)

    def test_noise_still_converges_in_expectation_scale(self):
        prob = self._noisy_problem(3, sigma=0.05)
        z0 = np.array([1.0, 1.0])
        omega_sq = omega_sq_bound(prob.set_geometry, z0)
        sched = stochastic_schedule(prob.L, max(prob.M, 1.0), 0.05,
                                    omega_sq, 20)
        final = mps_run(prob, sched, z0)
        # generous envelope: rate bound plus variance slack
        assert 0.5 * float(final @ final) <= 6.0 * omega_sq / 20 ** 2 + 0.1


class TestEntropyRun:
    def test_entropy_geometry_runs_on_simplex_product(self):
        spp_set = ProductSet([Simplex(3), Simplex(3)])
        geom = GeometrySpec("negative_entropy", spp_set)
        B = np.random.default_rng(367).normal(size=(3, 3))

        def H(z):
            x, y = z[:3], z[3:]
            return np.concatenate([B.T @ y, -B @ x])

        prob = VIProblem(set_geometry=geom, grad_G=lambda z: np.zeros(6),
                         L=1.0, H=H, M=float(np.linalg.norm(B, 2)), delta=0.0)
        z0 = np.full(6, 1.0 / 3.0)
        sched = deterministic_schedule(prob.L, prob.M, 12)
        final = mps_run(prob, sched, z0)
        assert prob.set_geometry.feasible_set.contains(final)
        # recorded from the per-block softmax loop the grouped prox replaced
        assert [float.hex(v) for v in final] == [
            "0x1.4168dd270aad0p-4", "0x1.80a574ac77b52p-1", "0x1.5cb5beba9bd4ep-3",
            "0x1.e5f2377e3e72bp-2", "0x1.7ffe9a9c3596ep-2", "0x1.341e5bcb17ecdp-3"]


# -- reference: the allocating sliding loop -----------------------------------
# The solver runs its inner loop on one workspace of preallocated buffers. The
# functions below are the loop it replaced, with a fresh array for every
# operation. Both run the same float operations in the same order, so their
# outputs must agree bit for bit.

def _ref_softmax_rows(W):
    W = W - W.max(axis=1, keepdims=True)
    E = np.exp(W)
    P = E / E.sum(axis=1, keepdims=True)
    P = np.maximum(P, ENTROPY_CLIP)
    return P / P.sum(axis=1, keepdims=True)


def _ref_log(z):
    return np.log(np.maximum(z, ENTROPY_CLIP))


def _ref_prox(geom, g, outer, beta, anchor_inner, eta):
    euclid = geom.dgf == SQUARED_EUCLIDEAN
    v = (outer + eta * (anchor_inner if euclid else _ref_log(anchor_inner)) - g) / (beta + eta)
    out = np.empty_like(v)
    for _, a, b, d, nb, *bounds in geom.feasible_set._groups:
        if bounds:
            out[a:b] = np.clip(v[a:b], *bounds)
        elif euclid:
            out[a:b] = _project_simplex_rows(v[a:b].reshape(nb, d)).ravel()
        else:
            out[a:b] = _ref_softmax_rows(v[a:b].reshape(nb, d)).ravel()
    return out


def reference_sliding_loop(problem, schedule, z0, observer):
    geom = problem.set_geometry
    fset = geom.feasible_set
    z_bar = z0.copy()
    z_prev = z0.copy()
    L = schedule.L
    for k in range(1, len(schedule.T) + 1):
        tk = int(schedule.T[k - 1])
        gk, bk, e1 = 2.0 / (k + 1.0), 2.0 * L / k, L * tk / k
        z_under = (1.0 - gk) * z_bar + gk * z_prev
        g_cached = problem.grad_G(z_under)
        outer = bk * (z_prev if geom.dgf == SQUARED_EUCLIDEAN else _ref_log(z_prev))
        z_t = z_prev.copy()
        z_tilde_sum = np.zeros_like(z_t)
        for t in range(1, tk + 1):
            et = bk * (t - 1) + e1
            z_tilde_t = _ref_prox(geom, g_cached + problem.H(z_t), outer, bk, z_t, et)
            z_next = _ref_prox(geom, g_cached + problem.H(z_tilde_t), outer, bk, z_t, et)
            z_tilde_sum += z_tilde_t
            z_t = z_next
        z_tilde = z_tilde_sum / tk
        z_bar = (1.0 - gk) * z_bar + gk * z_tilde
        z_prev = z_t
        assert fset.contains(z_bar) and fset.contains(z_prev)
        observer(k, z_bar)
    return z_bar


def _per_call_oracle(H, kind, sigma, dim):
    # the noise oracle with one generator draw per call
    if kind == "uniform":
        a = sigma * math.sqrt(3.0 / dim)
        return lambda z, rng: H(z) + rng.uniform(-a, a, dim)
    s = sigma / math.sqrt(dim)
    return lambda z, rng: H(z) + np.clip(rng.normal(0.0, s, dim), -4.0 * s, 4.0 * s)


def _read_only(a):
    # oracle results are handed out read-only: the loop must never write
    # into them, and a write would raise
    a.flags.writeable = False
    return a


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


class Recorder:
    """Copies of what one run hands out: z_bar_k from the observer, and the
    argument of every grad_G call (the sliding point z_under_k) and H call
    (the inner iterates z_k^{t-1} and z_tilde_k^t). The solver's are views
    of work buffers that later steps overwrite."""

    def __init__(self):
        self.z_bar, self.grad_G_args, self.H_args = [], [], []

    def observer(self, k, z_bar):
        assert k == len(self.z_bar) + 1
        self.z_bar.append(z_bar.copy())

    @staticmethod
    def log(fn, args):
        def logged(z, *rest):
            args.append(z.copy())
            return fn(z, *rest)

        return logged

    def wrap(self, problem):
        """``problem`` with its grad_G and H logged."""
        return replace(problem, grad_G=self.log(problem.grad_G, self.grad_G_args),
                       H=self.log(problem.H, self.H_args))


def solve(problem, schedule, z0):
    """``mps_run`` with its oracles and iterates recorded."""
    rec = Recorder()
    return mps_run(rec.wrap(problem), schedule, z0, observer=rec.observer), rec


def reference(problem, schedule, z0):
    """The reference loop, recorded as :func:`solve` records a run."""
    rec = Recorder()
    return reference_sliding_loop(rec.wrap(problem), schedule, z0, rec.observer), rec


def assert_same_run(got, ref):
    """Equal z_bar_N bits and equal logs. The logs hold the argument of
    every grad_G and H call, so they also pin the call counts."""
    (z, rec), (z_ref, rec_ref) = got, ref
    assert _bits(z) == _bits(z_ref)
    for name in ("z_bar", "grad_G_args", "H_args"):
        assert _bits(getattr(rec, name)) == _bits(getattr(rec_ref, name)), name


# (kind, block width, block count) runs; a run of equal kind and width
# becomes one group of ProductSet._groups
_euclid_runs = st.lists(st.one_of(
    st.tuples(st.just("simplex"), st.sampled_from([1, 2, 3, 5]), st.integers(1, 3)),
    st.tuples(st.just("box"), st.integers(1, 3), st.integers(1, 3))),
    min_size=1, max_size=5)
_simplex_runs = st.lists(st.tuples(st.just("simplex"), st.sampled_from([1, 2, 3, 5]),
                                   st.integers(1, 3)), min_size=1, max_size=4)


def _product(runs, r):
    factors = []
    for kind, d, n in runs:
        for _ in range(n):
            if kind == "simplex":
                factors.append(Simplex(d))
            else:
                lo = r.uniform(-2.0, 0.0, d)
                factors.append(Box(lo, lo + r.uniform(0.1, 2.0, d)))
    return ProductSet(factors)


def _affine_problem(fset, dgf, r, scale=1.0, M=2.0):
    """H(z) = B z + c (scaled) and grad G(z) = z - c2, both read-only."""
    n = fset.dim
    B = r.normal(size=(n, n))
    c = scale * r.uniform(-1.0, 1.0, n)
    c2 = r.uniform(-1.0, 1.0, n)
    return VIProblem(set_geometry=GeometrySpec(dgf, fset),
                     grad_G=lambda z: _read_only(z - c2), L=1.0,
                     H=lambda z: _read_only(B @ z + c), M=M, delta=0.0)


class TestWorkspaceLoopMatchesReference:
    @given(_euclid_runs, st.integers(1, 5), st.floats(0.5, 4.0), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_euclidean_products_of_simplices_and_boxes(self, runs, N, M, seed):
        r = np.random.default_rng(seed)
        fset = _product(runs, r)
        prob = _affine_problem(fset, SQUARED_EUCLIDEAN, r, M=M)
        z0 = fset.sample(r, 1)[0]
        sched = deterministic_schedule(prob.L, prob.M, N)
        assert_same_run(solve(prob, sched, z0), reference(prob, sched, z0))

    @given(_simplex_runs, st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_entropy_products_that_reach_the_clip(self, runs, N, seed):
        r = np.random.default_rng(seed)
        fset = _product(runs, r)
        # gradients of ~1e5 spread the log-weights far past the gap of 69 at
        # which softmax entries fall to ENTROPY_CLIP
        prob = _affine_problem(fset, NEGATIVE_ENTROPY, r, scale=1e5)
        z0 = fset.center()
        sched = deterministic_schedule(prob.L, prob.M, N)
        got = solve(prob, sched, z0)
        assert_same_run(got, reference(prob, sched, z0))
        if any(d > 1 for _, d, _ in runs):
            assert min(np.min(z) for z in got[1].H_args) < 1e-29

    @given(_euclid_runs, st.sampled_from(["uniform", "gaussian"]), st.integers(1, 3),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_stochastic_runs_across_noise_block_refills(self, runs, kind, N, seed):
        r = np.random.default_rng(seed)
        fset = ProductSet([Box(-np.ones(16), np.ones(16)), _product(runs, r)])
        rows = NOISE_BLOCK // fset.dim
        # T_k >= k M / L: at least 3 rows' worth of noisy calls, so the
        # oracle refills its block at least twice
        M = math.ceil((3 * rows) / (N * (N + 1)))
        prob = _affine_problem(fset, SQUARED_EUCLIDEAN, r, M=M)
        blocked = make_stochastic_oracle(prob.H, kind, 0.3, fset.dim, seed)
        per_call = _per_call_oracle(prob.H, kind, 0.3, fset.dim)
        ref_rng = np.random.default_rng(seed)
        z0 = fset.center()
        sched = deterministic_schedule(prob.L, prob.M, N)
        got = solve(replace(prob, H=lambda z: _read_only(blocked(z))), sched, z0)
        assert len(got[1].H_args) > 2 * rows
        assert_same_run(got, reference(
            replace(prob, H=lambda z: _read_only(per_call(z, ref_rng))), sched, z0))


class TestLoopGuards:
    def test_loop_never_writes_into_oracle_results(self):
        # H and grad_G hand out the same read-only arrays on every call
        fset = ProductSet([Simplex(2), Simplex(3), Box([-1.0], [1.0])])
        h, g = _read_only(np.linspace(-1.0, 1.0, 6)), _read_only(np.full(6, 0.25))
        prob = VIProblem(set_geometry=GeometrySpec(SQUARED_EUCLIDEAN, fset),
                         grad_G=lambda z: g, L=1.0, H=lambda z: h, M=3.0, delta=0.0)
        sched = deterministic_schedule(1.0, 3.0, 4)
        z0 = fset.center()
        assert_same_run(solve(prob, sched, z0), reference(prob, sched, z0))
        assert np.array_equal(h, np.linspace(-1.0, 1.0, 6))
        assert np.array_equal(g, np.full(6, 0.25))

    def test_non_finite_z_prev_names_the_outer_iteration(self):
        # the last H call of outer iteration 1 feeds the prox that yields
        # z_prev; z_bar averages the finite z_tilde and stays finite
        sched = deterministic_schedule(1.0, 3.0, 3)
        last = 2 * int(sched.T[0])
        calls = []

        def H(z):
            calls.append(1)
            return np.full(2, np.nan if len(calls) == last else 0.5)

        prob = VIProblem(set_geometry=box_geometry(2), grad_G=lambda z: z, L=1.0,
                         H=H, M=3.0, delta=0.0)
        with pytest.raises(DomainError, match="non-finite iterate produced at outer iteration 1"):
            mps_run(prob, sched, np.zeros(2))
        assert len(calls) == last

    def test_feasibility_guard_catches_an_infeasible_prox(self, monkeypatch):
        real_bind = sliding._bind_prox

        def bind_off_the_set(geom, arg, dst):
            into = real_bind(geom, arg, dst)

            def shifted():
                into()
                np.add(dst, 0.5, out=dst)  # finite, but off the simplex

            return shifted

        monkeypatch.setattr(sliding, "_bind_prox", bind_off_the_set)
        spp = make_matrix_game([MATCHING_PENNIES.copy()])
        prob = VIProblem(set_geometry=spp.stacked_geometry(), grad_G=lambda z: np.zeros(4),
                         L=2.0, H=spp.H, M=2.0, delta=0.0)
        with pytest.raises(DomainError, match="left the feasible set at outer iteration 1"):
            mps_run(prob, deterministic_schedule(2.0, 2.0, 3), spp.center())

"""Tests for the sliding solver: schedules, runs, traces, oracle counts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddleslide import (
    MATCHING_PENNIES,
    Box,
    ConfigurationError,
    GeometrySpec,
    ParameterError,
    ProductSet,
    SQUARED_EUCLIDEAN,
    Simplex,
    TRACE_COLUMNS,
    VIProblem,
    deterministic_schedule,
    exact_gap_matrix_game,
    make_matrix_game,
    mps_run,
    omega_sq_bound,
    q_gap,
    smps_run,
    stochastic_schedule,
    trace_to_csv,
)

rng = np.random.default_rng(1207)


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
        assert sched.gamma[2] == pytest.approx(0.5)
        assert sched.beta[2] == pytest.approx(4.0 / 3.0)
        assert sched.Gamma[2] == pytest.approx(1.0 / 6.0)
        # eta_k^t = beta_k (t - 1) + L T_k / k
        assert sched.eta(3, 1) == pytest.approx(10.0)
        assert sched.eta(3, 2) == pytest.approx(10.0 + 4.0 / 3.0)

    def test_T_floors_at_one(self):
        sched = deterministic_schedule(L=5.0, M=0.0, N=4)
        assert list(sched.T) == [1, 1, 1, 1]

    def test_gamma_one_at_first_iteration(self):
        sched = deterministic_schedule(L=1.0, M=1.0, N=7)
        assert sched.gamma[0] == pytest.approx(1.0)
        assert sched.Gamma[0] == pytest.approx(1.0)

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

    def test_tampered_schedules_fail_validation(self):
        base = deterministic_schedule(2.0, 10.0, 4)
        s = deterministic_schedule(2.0, 10.0, 4)
        s.gamma = base.gamma.copy()
        s.gamma[0] = 0.5
        with pytest.raises(ConfigurationError):
            s.validate()
        s = deterministic_schedule(2.0, 10.0, 4)
        s.T = base.T.copy()
        s.T[2] = 0
        with pytest.raises(ConfigurationError):
            s.validate()
        s = deterministic_schedule(2.0, 10.0, 4)
        s.beta = base.beta * 0.1
        with pytest.raises(ConfigurationError):
            s.validate()
        s = deterministic_schedule(2.0, 10.0, 4)
        s.Gamma = base.Gamma.copy()
        s.Gamma[3] *= 2.0
        with pytest.raises(ConfigurationError):
            s.validate()

    def test_validate_accepts_huge_inner_step_weights(self):
        # eta_k^t - eta_k^{t-1} = beta_k by construction, but at M / L ~ 4.5e6
        # the weights reach ~1e8, where rounding alone exceeds an absolute
        # 1e-9; the schedule is valid and must pass
        sched = deterministic_schedule(7.3, 3.3e7, 40)
        sched.validate()
        assert sched.T[-1] == 180821918

    def test_validate_agrees_with_per_k_reference(self):
        # validate checks every condition as one array expression; the
        # per-k loop below is the reference it must agree with
        def reference_accepts(s):
            n = s.N
            if abs(s.gamma[0] - 1.0) > 1e-12 or np.any(s.gamma < -1e-12) \
                    or np.any(s.gamma > 1.0 + 1e-12) or np.any(s.T < 1) \
                    or np.any(s.beta < s.L * s.gamma - 1e-9) \
                    or abs(s.Gamma[0] - 1.0) > 1e-12:
                return False
            for k in range(2, n + 1):
                expected = (1.0 - s.gamma[k - 1]) * s.Gamma[k - 2]
                if abs(s.Gamma[k - 1] - expected) > 1e-12 * max(1.0, abs(expected)):
                    return False
            for k in range(1, n + 1):
                bk, e1 = s.beta[k - 1], s.eta(k, 1)
                if not (e1 > 0 and np.isfinite(e1)):
                    return False
                if s.M > bk + e1 + 1e-9 * max(1.0, s.M):
                    return False
            for k in range(2, n + 1):
                tkm = int(s.T[k - 2])
                lhs = s.gamma[k - 1] / s.Gamma[k - 1] \
                    * (s.beta[k - 1] + s.eta(k, 1) / s.T[k - 1])
                rhs = s.gamma[k - 2] * (s.beta[k - 2] + s.eta(k - 1, tkm)) \
                    / (s.Gamma[k - 2] * tkm)
                if lhs > rhs * (1.0 + 1e-9) + 1e-12:
                    return False
            return True

        fields = ("gamma", "beta", "eta1", "Gamma", "T")
        outcomes = []
        for make in (lambda: deterministic_schedule(2.0, 10.0, 9),
                     lambda: stochastic_schedule(2.0, 10.0, 0.3, 1.5, 9)):
            for _ in range(150):
                s = make()
                name = fields[rng.integers(len(fields))]
                arr = getattr(s, name).copy()
                i = rng.integers(s.N)
                if name == "T":
                    arr[i] = max(0, arr[i] + rng.integers(-2, 3))
                else:
                    arr[i] *= rng.choice([1.0, 1.0 - 1e-13, 1.0 + 1e-13, 1.0 - 1e-10,
                                          1.0 + 1e-10, 1.0 - 1e-8, 1.0 + 1e-8,
                                          1.0 - 1e-6, 1.0 + 1e-6,
                                          0.5, 2.0, 0.0, np.inf])
                setattr(s, name, arr)
                with np.errstate(invalid="ignore"):
                    try:
                        s.validate()
                        accepted = True
                    except ConfigurationError:
                        accepted = False
                    assert accepted == reference_accepts(s), (name, i, arr)
                outcomes.append(accepted)
        assert 0.1 < np.mean(outcomes) < 0.9


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

    def test_eta_reads_the_stored_first_step_weights(self):
        # the inner loop and validate both use eta_k^t = beta_k (t-1) + eta_k^1
        L = 2.0
        sched = stochastic_schedule(L, 10.0, 0.3, 1.5, 12)
        ks = np.arange(1, 13, dtype=float)
        assert np.array_equal(sched.eta1, L * sched.T / ks)
        for k in range(1, sched.N + 1):
            bk, e1 = sched.beta[k - 1], sched.eta1[k - 1]
            for t in range(1, int(sched.T[k - 1]) + 1):
                assert sched.eta(k, t) == bk * (t - 1) + e1, (k, t)

    def test_rejects_bad_noise_parameters(self):
        with pytest.raises(ParameterError):
            stochastic_schedule(1.0, 1.0, -0.1, 1.0, 3)
        with pytest.raises(ParameterError):
            stochastic_schedule(1.0, 1.0, 0.5, 0.0, 3)


class TestQGap:
    def test_frozen_quadratic_value(self):
        D = np.diag([2.0, 1.0])
        c = np.array([1.0, -1.0])
        prob = VIProblem(
            set_geometry=box_geometry(2, 2.0),
            grad_G=lambda z: D @ z + c,
            L=2.0,
            H=lambda z: np.zeros(2),
            M=0.0,
            delta=0.0,
            value_G=lambda z: 0.5 * float(z @ D @ z) + float(c @ z),
        )
        val = q_gap(prob, np.array([0.5, 0.25]), np.array([0.1, 0.9]))
        assert val == pytest.approx(0.91625, abs=1e-12)

    def test_zero_at_identical_points(self):
        prob = quadratic_problem()
        z = np.array([0.3, -0.4])
        assert q_gap(prob, z, z) == pytest.approx(0.0, abs=1e-15)

    def test_requires_value_G(self):
        prob = quadratic_problem()
        prob.value_G = None
        with pytest.raises(ConfigurationError):
            q_gap(prob, np.zeros(2), np.zeros(2))


class TestDeterministicRun:
    def test_quadratic_obeys_rate_bound_at_every_iteration(self):
        # sup_z Q(z_bar, z) = 0.5 ||z_bar||^2 here; the schedule prefix at k
        # equals the k-iteration schedule, so the bound holds for every k.
        prob = quadratic_problem(dim=2, half_width=1.0)
        z0 = np.array([1.0, 1.0])
        omega_sq = omega_sq_bound(prob.set_geometry, z0)
        assert omega_sq == pytest.approx(4.0)
        sched = deterministic_schedule(prob.L, prob.M, N=16)
        final, trace = mps_run(prob, sched, z0, retain_iterates=True)
        for k, zb in enumerate(trace.z_bar_snapshots, start=1):
            assert 0.5 * float(zb @ zb) <= 6.0 * prob.L * omega_sq / k ** 2 + 1e-12
        assert np.allclose(final, trace.z_bar_snapshots[-1])

    def test_matching_pennies_reaches_small_gap(self):
        spp = make_matrix_game([MATCHING_PENNIES.copy()], 1)
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
        final, _ = mps_run(prob, sched, z0)
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
        _, trace = mps_run(prob, sched, np.zeros(2))
        assert calls["g"] == 6 == trace.total_grad_G
        assert calls["h"] == 2 * int(np.sum(sched.T)) == trace.total_H
        # trace rows hold cumulative counters
        assert trace.grad_G_calls == list(range(1, 7))
        assert trace.H_calls[-1] == calls["h"]

    def test_rejects_stochastic_problem(self):
        prob = quadratic_problem()
        prob.sigma = 0.5
        with pytest.raises(ConfigurationError):
            mps_run(prob, deterministic_schedule(1.0, 0.0, 2), np.zeros(2))

    def test_rejects_infeasible_start(self):
        prob = quadratic_problem(half_width=1.0)
        with pytest.raises((ParameterError, Exception)):
            mps_run(prob, deterministic_schedule(1.0, 0.0, 2),
                    np.array([5.0, 0.0]))


class TestStochasticRun:
    def _noisy_problem(self, sigma=0.2):
        dim = 2
        prob = quadratic_problem(dim)
        a = sigma * np.sqrt(3.0 / dim)
        prob.sigma = sigma
        prob.H_stochastic = lambda z, gen: gen.uniform(-a, a, dim)
        return prob

    def test_same_seed_reproduces_bitwise(self):
        prob = self._noisy_problem()
        sched = stochastic_schedule(prob.L, prob.M, prob.sigma, 4.0, 8)
        z0 = np.array([1.0, -1.0])
        f1, t1 = smps_run(prob, sched, z0, seed=42)
        f2, t2 = smps_run(prob, sched, z0, seed=42)
        assert np.array_equal(f1, f2)
        assert t1.total_H == t2.total_H
        f3, _ = smps_run(prob, sched, z0, seed=43)
        assert not np.array_equal(f1, f3)

    def test_zero_noise_matches_deterministic_run_bitwise(self):
        prob = quadratic_problem()
        prob.H_stochastic = lambda z, gen: prob.H(z)
        sched = deterministic_schedule(prob.L, prob.M, 10)
        z0 = np.array([0.7, -0.2])
        f_det, _ = mps_run(prob, sched, z0)
        f_sto, _ = smps_run(prob, sched, z0, seed=0)
        assert np.array_equal(f_det, f_sto)

    def test_requires_stochastic_oracle(self):
        prob = quadratic_problem()
        sched = deterministic_schedule(1.0, 0.0, 2)
        with pytest.raises(ConfigurationError):
            smps_run(prob, sched, np.zeros(2), seed=0)

    def test_noise_still_converges_in_expectation_scale(self):
        prob = self._noisy_problem(sigma=0.05)
        z0 = np.array([1.0, 1.0])
        omega_sq = omega_sq_bound(prob.set_geometry, z0)
        sched = stochastic_schedule(prob.L, max(prob.M, 1.0), prob.sigma,
                                    omega_sq, 20)
        final, _ = smps_run(prob, sched, z0, seed=3)
        # generous envelope: rate bound plus variance slack
        assert 0.5 * float(final @ final) <= 6.0 * omega_sq / 20 ** 2 + 0.1


class TestTrace:
    def test_csv_schema_and_rows(self, tmp_path):
        prob = quadratic_problem()
        sched = deterministic_schedule(1.0, 2.0, 5)
        _, trace = mps_run(prob, sched, np.array([0.5, 0.5]))
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == 1 + 5
        first = lines[1].split(",")
        assert len(first) == len(TRACE_COLUMNS)
        assert first[0] == "1"

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
        final, trace = mps_run(prob, sched, z0)
        assert prob.set_geometry.feasible_set.contains(final)
        assert trace.N == 12
        # recorded from the per-block softmax loop the grouped prox replaced
        assert [float.hex(v) for v in final] == [
            "0x1.4168dd270aad0p-4", "0x1.80a574ac77b52p-1", "0x1.5cb5beba9bd4ep-3",
            "0x1.e5f2377e3e72bp-2", "0x1.7ffe9a9c3596ep-2", "0x1.341e5bcb17ecdp-3"]

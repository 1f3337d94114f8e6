"""Tests for problem families, gap oracles, certification and the QP baseline."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from saddleslide import (
    MATCHING_PENNIES,
    Box,
    CertificationError,
    ConfigurationError,
    DimensionError,
    DomainError,
    PenaltyCoefficients,
    build_penalized_vi,
    build_topology,
    certify_inexact_oracle,
    exact_gap_matrix_game,
    l1_saddle_gap,
    make_l1_saddle,
    make_matrix_game,
    make_stochastic_oracle,
    ParameterError,
    operator_bound_L0,
    random_l1_saddle,
    random_matrix_game,
)
from saddleslide import geometry, instances
from saddleslide.harness import NOISE_BLOCK

import reference_oracles
from reference_oracles import (L1Node, accelerated_projected_gradient, make_consensus_qp,
                               sup_gap_skew_linear)

rng = np.random.default_rng(1207)


def whole_batch_slack(H, fset, M, delta, triples, seed):
    """Per-triple slack of the certificate with H called once on all first
    points and once on all second points; also returns the three draws."""
    r = np.random.default_rng(seed)
    Z1, Z2, Z3 = (fset.sample(r, triples) for _ in range(3))
    d12, d13 = Z1 - Z2, Z1 - Z3
    lhs = np.einsum("ij,ij->i", H(Z1) - H(Z2), d13)
    rhs = (0.5 * M * np.einsum("ij,ij->i", d12, d12)
           + 0.5 * M * np.einsum("ij,ij->i", d13, d13) + delta)
    return rhs - lhs, (Z1, Z2, Z3)


def lp_game_solution(A):
    """Zero-sum game saddle point by linear programming (independent oracle).

    Payoff y^T A x with x minimizing and y maximizing; returns (x, y, value).
    """
    dy, dx = A.shape
    # min over x of t, A x <= t 1, sum x = 1, x >= 0
    c = np.zeros(dx + 1)
    c[-1] = 1.0
    A_ub = np.hstack([A, -np.ones((dy, 1))])
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(dy),
                  A_eq=np.hstack([np.ones((1, dx)), np.zeros((1, 1))]),
                  b_eq=[1.0], bounds=[(0, None)] * dx + [(None, None)],
                  method="highs")
    assert res.success
    x, value = res.x[:dx], res.x[-1]
    # max over y of s, A^T y >= s 1, sum y = 1, y >= 0
    c2 = np.zeros(dy + 1)
    c2[-1] = -1.0
    A_ub2 = np.hstack([-A.T, np.ones((dx, 1))])
    res2 = linprog(c2, A_ub=A_ub2, b_ub=np.zeros(dx),
                   A_eq=np.hstack([np.ones((1, dy)), np.zeros((1, 1))]),
                   b_eq=[1.0], bounds=[(0, None)] * dy + [(None, None)],
                   method="highs")
    assert res2.success
    return x, res2.x[:dy], value


@pytest.mark.parametrize("build", [
    lambda: make_matrix_game([]),
    lambda: make_matrix_game([np.array([1.0, 2.0])]),
    lambda: make_matrix_game([np.ones((2, 2, 2))]),
    lambda: make_matrix_game([np.ones((2, 2)), np.ones((2, 3))]),
    lambda: make_l1_saddle([np.float64(1.0)], [np.zeros(1)], [np.ones((2, 1))], 1.0),
    lambda: make_l1_saddle([np.eye(2)], [np.zeros(2)], [np.ones((2, 2))], 1.0),
    lambda: make_l1_saddle([np.ones(3)], [np.zeros(2)], [np.ones((2, 2))], 1.0),
    lambda: make_l1_saddle([np.ones(2), np.ones(3)], [np.zeros(2)] * 2,
                           [np.ones((2, 2))] * 2, 1.0),
    lambda: make_l1_saddle([np.ones(2)] * 2, [np.zeros(2), np.zeros(3)],
                           [np.ones((2, 2))] * 2, 1.0),
    lambda: make_l1_saddle([np.ones(2)], [np.zeros(2)], [np.ones((2, 3))], 1.0),
    lambda: make_matrix_game([[[1.0, 2.0], [3.0]]]),
    lambda: make_l1_saddle([np.ones(2)], [np.zeros(2)], [[[1.0, 2.0], [3.0]]], 1.0),
], ids=["game-empty", "game-1d", "game-3d", "game-shapes", "l1-0d-b", "l1-2d-b", "l1-b-length",
        "l1-B-shapes", "l1-c-shapes", "l1-C-columns", "game-ragged-matrix", "l1-ragged-C"])
def test_malformed_instance_data_raises_dimension_error(build):
    with pytest.raises(DimensionError):
        build()


@pytest.mark.parametrize("entry", [0, 1, 2], ids=["b", "c", "C"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_l1_data_raises_domain_error(entry, bad):
    data = [[np.ones(2)], [np.zeros(2)], [np.ones((3, 2))]]
    data[entry][0].flat[1] = bad
    with pytest.raises(DomainError):
        make_l1_saddle(*data, 1.0)


@pytest.mark.parametrize("build", [
    lambda: make_matrix_game([[["a", 1.0], [0.0, 1.0]]]),
    lambda: make_l1_saddle([np.ones(2)], [["x", 0.0]], [np.ones((3, 2))], 1.0),
], ids=["game", "l1"])
def test_entries_that_are_not_numbers_are_domain_errors_not_shape_errors(build):
    with pytest.raises(DomainError, match="real numbers") as info:
        build()
    assert "could not convert" in str(info.value.__cause__)


def instance_bytes(spp):
    # every array of an instance as its dtype, shape, strides and bytes
    def key(v):
        return (v.dtype, v.shape, v.strides, v.tobytes()) if isinstance(v, np.ndarray) else v

    return (spp.m, spp.d_x, spp.d_y, spp.subgrad_bound_x, spp.subgrad_bound_y,
            spp.operator_bound, key(spp.linear_H),
            sorted((k, key(v)) for k, v in spp.meta.items()))


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 6), d_x=st.integers(1, 4), d_y=st.integers(1, 4),
       seed=st.integers(0, 2 ** 16))
def test_one_stacked_array_and_per_node_arrays_build_the_same_instance(m, d_x, d_y, seed):
    r = np.random.default_rng(seed)
    A = r.uniform(-1.0, 1.0, (m, d_y, d_x))
    b, c = r.uniform(0.5, 1.5, (m, d_x)), r.uniform(-1.0, 1.0, (m, d_x))
    C = r.uniform(-0.5, 0.5, (m, d_y, d_x))
    pennies = np.broadcast_to(MATCHING_PENNIES, (m, 2, 2))
    for stacked, per_node in (
            (make_matrix_game(A), make_matrix_game(list(A))),
            (make_matrix_game(A), make_matrix_game(A.tolist())),
            (make_matrix_game(pennies), make_matrix_game([MATCHING_PENNIES.copy()] * m)),
            (make_l1_saddle(b, c, C, 1.5), make_l1_saddle(list(b), list(c), list(C), 1.5))):
        assert instance_bytes(stacked) == instance_bytes(per_node)
        Z = stacked.stacked_set().sample(np.random.default_rng(seed), 4)
        assert stacked.H(Z).tobytes() == per_node.H(Z).tobytes()
        assert all(not np.shares_memory(v, given) for v in stacked.meta.values()
                   if isinstance(v, np.ndarray) for given in (A, b, c, C, pennies))


class TestMatrixGames:
    def test_matching_pennies_equilibrium_gap_zero(self):
        uniform = np.array([0.5, 0.5])
        assert exact_gap_matrix_game(MATCHING_PENNIES, uniform, uniform) == 0.0

    def test_matching_pennies_vertex_gap(self):
        v = np.array([1.0, 0.0])
        assert exact_gap_matrix_game(MATCHING_PENNIES, v, v) == pytest.approx(2.0)

    def test_gap_nonnegative_everywhere(self):
        A = rng.normal(size=(3, 4))
        for _ in range(50):
            x = rng.dirichlet(np.ones(4))
            y = rng.dirichlet(np.ones(3))
            assert exact_gap_matrix_game(A, x, y) >= -1e-12

    def test_gap_vanishes_at_lp_solution(self):
        A = np.round(rng.normal(size=(3, 3)), 3)
        x, y, value = lp_game_solution(A)
        assert exact_gap_matrix_game(A, x, y) <= 1e-6
        assert np.max(A @ x) == pytest.approx(value, abs=1e-8)
        assert np.min(A.T @ y) == pytest.approx(value, abs=1e-8)

    def test_gap_rejects_infeasible_points(self):
        with pytest.raises(DomainError):
            exact_gap_matrix_game(MATCHING_PENNIES, np.array([0.7, 0.7]),
                                  np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            exact_gap_matrix_game(MATCHING_PENNIES, np.array([-0.1, 1.1]),
                                  np.array([0.5, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gap_rejects_non_finite_points(self, bad):
        x, y = np.full((3, 2), 0.5), np.full((3, 2), 0.5)
        for pts in ((x[0], y[0]), (x, y)):
            for v in pts:
                v.flat[-1] = bad
                with pytest.raises(DomainError):
                    exact_gap_matrix_game(MATCHING_PENNIES, *pts)
                v.flat[-1] = 0.5

    def test_stacked_oracle_is_skew(self):
        spp = random_matrix_game(3, 2, 4, seed=8)
        for _ in range(20):
            z1 = spp.stacked_set().sample(rng, 1)[0]
            z2 = spp.stacked_set().sample(rng, 1)[0]
            inner = float((spp.H(z1) - spp.H(z2)) @ (z1 - z2))
            assert abs(inner) <= 1e-9

    def test_analytic_operator_bound(self):
        spp = make_matrix_game([MATCHING_PENNIES.copy()])
        assert operator_bound_L0(spp, samples=10, seed=0) == pytest.approx(2.0)
        zero = make_matrix_game([np.zeros((2, 2))])
        assert operator_bound_L0(zero, samples=10, seed=0) == 0.0

    def test_sampled_bound_below_analytic(self):
        spp = random_matrix_game(2, 3, 3, seed=4)
        Hs = spp.H(spp.stacked_set().sample(np.random.default_rng(2), 500))
        sampled = float(np.linalg.norm(Hs, axis=1).max())
        assert sampled <= operator_bound_L0(spp, samples=10, seed=0) + 1e-12

    @pytest.mark.parametrize("samples", [0, -1, True, 2.5])
    def test_no_samples_rejected(self, samples):
        for spp in (random_l1_saddle(2, 2, 2, seed=0), random_matrix_game(2, 2, 2, seed=0)):
            with pytest.raises(ParameterError, match="samples"):
                operator_bound_L0(spp, samples, seed=0)


@pytest.mark.parametrize("m, d_x, d_y", [(1, 1, 1), (3, 2, 4), (4, 3, 3), (7, 5, 2)])
@pytest.mark.parametrize("seed", [0, 1, 17])
def test_random_instances_are_the_per_node_draws(m, d_x, d_y, seed):
    # one generator call per array fills it in C order, which is the stream
    # of the node-after-node draws the families were defined by
    g = np.random.default_rng(seed)
    A = [g.uniform(-1.0, 1.0, (d_y, d_x)) for _ in range(m)]
    assert random_matrix_game(m, d_x, d_y, seed).meta["A"].tobytes() == np.stack(A).tobytes()
    g = np.random.default_rng(seed)
    b = [g.uniform(0.5, 1.5, d_x) for _ in range(m)]
    c = [g.uniform(-1.0, 1.0, d_x) for _ in range(m)]
    C = [g.uniform(-0.5, 0.5, (d_y, d_x)) for _ in range(m)]
    meta = random_l1_saddle(m, d_x, d_y, seed).meta
    for name, per_node in (("b", b), ("c", c), ("C", C)):
        assert meta[name].shape == np.stack(per_node).shape
        assert meta[name].tobytes() == np.stack(per_node).tobytes(), name


class TestL1Saddle:
    def _small(self, seed=3):
        return random_l1_saddle(3, 2, 2, seed=seed, box_radius=1.0)

    @staticmethod
    def _node0(spp):
        return L1Node(spp.meta["b"][0], spp.meta["c"][0], spp.meta["C"][0])

    def test_convexity_in_x(self):
        spp = self._small()
        loc = self._node0(spp)
        for _ in range(300):
            v, w = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            y = rng.uniform(-1, 1, 2)
            gx, _ = loc.h(v, y)
            assert loc.value(w, y) >= loc.value(v, y) + gx @ (w - v) - 1e-10

    def test_concavity_in_y(self):
        spp = self._small()
        loc = self._node0(spp)
        for _ in range(300):
            x = rng.uniform(-1, 1, 2)
            v, w = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            _, hy = loc.h(x, v)
            # h stores the negated supergradient of the concave block
            assert loc.value(x, w) <= loc.value(x, v) + (-hy) @ (w - v) + 1e-10

    def test_operator_monotone(self):
        spp = self._small()
        for _ in range(200):
            z1 = spp.stacked_set().sample(rng, 1)[0]
            z2 = spp.stacked_set().sample(rng, 1)[0]
            assert float((spp.H(z1) - spp.H(z2)) @ (z1 - z2)) >= -1e-9

    def test_gap_identity_instance_closed_form(self):
        m, d = 3, 2
        spp = make_l1_saddle([np.ones(d)] * m, [np.zeros(d)] * m,
                             [np.zeros((d, d))] * m, box_radius=1.0)
        assert l1_saddle_gap(spp, np.zeros(d), np.zeros(d)) == pytest.approx(0.0)
        x = np.array([0.5, -0.25])
        y = np.array([0.3, 0.0])
        expected = np.abs(x).sum() + np.abs(y).sum()
        assert l1_saddle_gap(spp, x, y) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gap_rejects_non_finite_points(self, bad):
        spp = self._small(seed=6)
        x, y = np.zeros((3, 2)), np.zeros((3, 2))
        for pts in ((x[0], y[0]), (x, y)):
            for v in pts:
                v.flat[-1] = bad
                with pytest.raises(DomainError):
                    l1_saddle_gap(spp, *pts)
                v.flat[-1] = 0.0

    def test_gap_nonnegative(self):
        spp = self._small(seed=6)
        for _ in range(50):
            x = rng.uniform(-1, 1, 2)
            y = rng.uniform(-1, 1, 2)
            assert l1_saddle_gap(spp, x, y) >= -1e-12

    def test_inner_minimum_against_dense_grid(self):
        # the gap's inf route scans kink candidates; a dense grid is an
        # independent (slower, approximate) oracle for the same minimum
        spp = self._small(seed=11)
        b = spp.meta["b"]
        c2 = spp.meta["c"]
        C_bar = spp.meta["C"].mean(axis=0)
        y = rng.uniform(-1, 1, 2)
        g = C_bar.T @ y
        m = 3

        # exact inf from the shipped gap at the (grid) argmin x, y fixed:
        # compare the separable per-coordinate minima directly
        ts = np.linspace(-1.0, 1.0, 100001)
        total_grid = 0.0
        for j in range(2):
            bj = b[:, j]
            vals = np.abs(np.outer(bj, ts) - c2[:, j][:, None]).sum(axis=0) / m \
                + g[j] * ts
            total_grid += float(vals.min())
        # reconstruct the shipped inf via gap(x0, y) = f_sup(x0) - f_inf(y),
        # with f_inf(y) = sum_j min_t(...) - ||y||_1
        x0 = np.zeros(2)
        f_sup_x0 = float(np.abs(-c2).sum() / m
                         + 1.0 * np.clip(np.abs(C_bar @ x0) - 1.0, 0.0, None).sum())
        shipped_inf = f_sup_x0 - l1_saddle_gap(spp, x0, y)
        assert shipped_inf == pytest.approx(total_grid - np.abs(y).sum(), abs=2e-4)


class TestCertification:
    def test_exact_bilinear_oracle_certifies_with_lipschitz_M(self):
        spp = make_matrix_game([MATCHING_PENNIES.copy()])
        report = certify_inexact_oracle(spp.H, spp.stacked_set(), M=2.0,
                                        delta=0.0, triples=2000, seed=0)
        assert report.worst_slack >= -1e-9
        assert "certified" in str(report)

    def test_synthesized_constants_certify_l1_operator(self):
        spp = random_l1_saddle(2, 2, 2, seed=1, box_radius=1.0)
        eps = 0.05
        L0 = operator_bound_L0(spp, samples=500, seed=1)
        report = certify_inexact_oracle(spp.H, spp.stacked_set(),
                                        M=L0 ** 2 / (2 * eps), delta=2 * eps,
                                        triples=2000, seed=3)
        assert report.triples == 2000

    def test_zero_oracle_certifies_at_zero_constants(self):
        box = Box(-np.ones(3), np.ones(3))
        report = certify_inexact_oracle(lambda z: np.zeros_like(z), box, M=0.0,
                                        delta=0.0, triples=100, seed=0)
        assert report.worst_slack == pytest.approx(0.0, abs=1e-15)

    def test_violation_raises_with_witness(self):
        box = Box(np.zeros(2), np.ones(2))

        def jumpy(z):
            return np.sign(z - 0.5)

        with pytest.raises(CertificationError) as exc_info:
            certify_inexact_oracle(jumpy, box, M=0.0, delta=0.0,
                                   triples=300, seed=0)
        z1, z2, z3 = exc_info.value.witness
        lhs = float((jumpy(z1) - jumpy(z2)) @ (z1 - z3))
        assert lhs > 0.0

    @settings(max_examples=25, deadline=None)
    @given(family=st.sampled_from([random_l1_saddle, random_matrix_game]),
           m=st.integers(1, 5), d_x=st.integers(1, 5), d_y=st.integers(1, 5),
           triples=st.integers(1, 400), seed=st.integers(0, 2 ** 16))
    def test_batched_certificate_equals_row_by_row_reference(
            self, family, m, d_x, d_y, triples, seed):
        # the certificate calls H on blocks of rows; the loop below is the
        # per-point reference it must reproduce bit for bit
        spp = family(m, d_x, d_y, seed=seed)
        fset = spp.stacked_set()
        eps = 0.1  # the bounded-operator constants, which certify by theory
        M, delta = spp.operator_bound ** 2 / (2 * eps), 2 * eps
        slack, _ = whole_batch_slack(lambda Z: np.array([spp.H(z) for z in Z]), fset,
                                     M, delta, triples, seed)
        report = certify_inexact_oracle(spp.H, fset, M=M, delta=delta,
                                        triples=triples, seed=seed)
        assert report.worst_slack == float(slack.min())
        assert report.mean_slack == float(slack.mean())

    @pytest.mark.parametrize("family", [random_l1_saddle, random_matrix_game])
    @pytest.mark.parametrize("rows,triples", [(1, 5), (3, 10), (7, 50), (64, 200)])
    def test_blocked_certificate_equals_the_whole_batch_one(
            self, monkeypatch, family, rows, triples):
        # several full blocks and a partial last one; a block smaller than
        # one row still holds one
        spp = family(3, 4, 2, seed=rows)
        fset = spp.stacked_set()
        monkeypatch.setattr(instances, "CERTIFY_BLOCK", rows * fset.dim - (rows == 1))
        calls = []

        def H(Z):
            calls.append(len(Z))
            return spp.H(Z)

        M, delta = spp.operator_bound ** 2 / 0.2, 0.2
        report = certify_inexact_oracle(H, fset, M, delta, triples, seed=9)
        slack, _ = whole_batch_slack(spp.H, fset, M, delta, triples, seed=9)
        assert report.worst_slack == float(slack.min())
        assert report.mean_slack == float(slack.mean())
        full, last = divmod(triples, rows)
        assert calls == [rows] * (2 * full) + [last] * (2 * (last > 0))

    def test_violation_in_a_later_block_gives_the_whole_batch_witness(self, monkeypatch):
        box = Box(np.zeros(2), np.ones(2))

        def jumpy(z):
            return np.sign(z - 0.5)

        slack, Z = whole_batch_slack(jumpy, box, 0.0, 0.0, 300, seed=4)
        worst = int(np.argmin(slack))
        assert slack[worst] < -1e-9 and worst >= 9
        # one block of all rows, then blocks that put the worst triple in the
        # fourth block or later
        errors = []
        for rows in (300, worst // 3):
            monkeypatch.setattr(instances, "CERTIFY_BLOCK", rows * box.dim)
            with pytest.raises(CertificationError) as exc_info:
                certify_inexact_oracle(jumpy, box, M=0.0, delta=0.0, triples=300, seed=4)
            errors.append(exc_info.value)
        one, blocked = errors
        assert str(blocked) == str(one) and f"at triple {worst} of 300" in str(one)
        for err in (one, blocked):
            assert [w.tobytes() for w in err.witness] == [z[worst].tobytes() for z in Z]

    @pytest.mark.parametrize("family", [random_l1_saddle, random_matrix_game])
    def test_working_memory_is_three_times_the_points_plus_a_few_blocks(self, family):
        # Z1, Z2 and Z3 stay whole (3 n dim floats), and the sampler writes
        # its chunks straight into them; the per-triple terms and the slack
        # take a few arrays of n floats, H and the sampler a few blocks
        spp = family(8, 2, 2, seed=1)
        fset = spp.stacked_set()
        for n in (3000, 40000):
            tracemalloc.start()
            try:
                certify_inexact_oracle(spp.H, fset, spp.operator_bound ** 2 / 0.2, 0.2, n,
                                       seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * (3 * n * fset.dim + 6 * n + 6 * instances.CERTIFY_BLOCK
                                + 2 * geometry.SAMPLE_CHUNK)

    def test_oracle_that_cannot_take_a_batch_is_rejected(self):
        box = Box(-np.ones(3), np.ones(3))
        with pytest.raises(ParameterError):
            certify_inexact_oracle(lambda z: np.zeros(3), box, M=0.0,
                                   delta=0.0, triples=10, seed=0)

    def test_rejects_bad_parameters(self):
        box = Box(np.zeros(2), np.ones(2))
        with pytest.raises(ParameterError, match="M"):
            certify_inexact_oracle(lambda z: z, box, M=-1.0, delta=0.0,
                                   triples=10, seed=0)

    @pytest.mark.parametrize("triples", [2.5, True, 0])
    def test_triples_that_is_not_a_positive_integer_is_a_parameter_error(self, triples):
        box = Box(np.zeros(2), np.ones(2))
        with pytest.raises(ParameterError, match="triples"):
            certify_inexact_oracle(lambda z: z, box, M=1.0, delta=0.0,
                                   triples=triples, seed=0)


class TestSupGapOracle:
    def _single_game_vi(self, A, eps=0.1):
        spp = make_matrix_game([A])
        single = build_topology("single", 1)
        coeffs = PenaltyCoefficients(0.0, 0.0, eps)
        return spp, build_penalized_vi(spp, single, coeffs)

    def test_matches_exact_game_gap_single_node(self):
        A = rng.normal(size=(3, 3))
        spp, vi = self._single_game_vi(A)
        for _ in range(5):
            z = spp.stacked_set().sample(rng, 1)[0]
            X, Y = spp.split(z)
            exact = exact_gap_matrix_game(A, X[0], Y[0])
            numeric, _ = sup_gap_skew_linear(vi, z)
            assert numeric == pytest.approx(exact, rel=1e-6, abs=1e-8)

    def test_consensual_point_gap_is_m_times_single(self):
        m = 3
        spp = make_matrix_game([MATCHING_PENNIES.copy() for _ in range(m)])
        net = build_topology("complete", m)
        coeffs = PenaltyCoefficients(2.0, 2.0, 0.1)
        vi = build_penalized_vi(spp, net, coeffs)
        x_hat = np.array([0.7, 0.3])
        y_hat = np.array([0.4, 0.6])
        z_bar = np.concatenate((np.tile(x_hat, m), np.tile(y_hat, m)))  # all x, then all y
        single = exact_gap_matrix_game(MATCHING_PENNIES, x_hat, y_hat)
        assert single == pytest.approx(0.6)
        stacked, _ = sup_gap_skew_linear(vi, z_bar)
        assert stacked == pytest.approx(m * single, rel=1e-6)

    @pytest.mark.parametrize("cap", [1, 2, 5, 50])
    def test_iteration_cap_still_returns_bounds(self, monkeypatch, cap):
        spp = random_matrix_game(8, 3, 2, seed=4)
        vi = build_penalized_vi(spp, build_topology("ring", 8),
                                PenaltyCoefficients(0.5, 0.5, 0.1))
        z = spp.stacked_set().sample(np.random.default_rng(8), 1)[0]
        closed_upper, closed_lower = sup_gap_skew_linear(vi, z)
        monkeypatch.setattr(reference_oracles, "SUP_GAP_MAX_ITER", cap)
        upper, lower = sup_gap_skew_linear(vi, z)
        # both brackets hold the supremum, and the capped one is still open
        assert lower <= closed_upper and closed_lower <= upper
        assert upper - lower > 1e-6 * (1.0 + closed_upper)

    def test_rejects_a_zero_lipschitz_constant(self):
        spp, vi = self._single_game_vi(MATCHING_PENNIES.copy())
        with pytest.raises(ParameterError, match="L > 0"):
            sup_gap_skew_linear(replace(vi, L=0.0), spp.center())


class TestConsensusQP:
    def _qp(self, seed=2):
        net = build_topology("ring", 4)
        return make_consensus_qp(4, 3, net, epsilon=1e-2, seed=seed)

    def test_consensual_optimum_is_stationary(self):
        qp = self._qp()
        X_star = np.tile(qp.w_star, (4, 1))
        assert np.linalg.norm(qp.grad_u(X_star).sum(axis=0)) <= 1e-9
        assert qp.u(X_star) == pytest.approx(qp.u_star)

    def test_gradient_matches_central_differences(self):
        qp = self._qp()
        X = rng.normal(size=(4, 3))
        G = qp.grad_U(X)
        fd = np.zeros_like(X)
        h = 1e-6
        for i in range(4):
            for j in range(3):
                E = np.zeros_like(X)
                E[i, j] = h
                fd[i, j] = (qp.U(X + E) - qp.U(X - E)) / (2 * h)
        assert np.max(np.abs(G - fd)) / max(1.0, np.max(np.abs(G))) <= 1e-6

    def test_exact_solve_agrees_with_accelerated_gradient(self):
        qp = self._qp(seed=5)
        X_lin = qp.solve_penalized_exact()
        X_apg = accelerated_projected_gradient(
            qp.grad_U, qp.project, np.zeros((4, 3)), qp.L_U(), qp.mu,
            tol=1e-10)
        assert np.max(np.abs(X_lin - X_apg)) <= 1e-6
        assert qp.U(X_apg) == pytest.approx(qp.U(X_lin), abs=1e-10)

    def test_penalized_solution_brackets_consensual_value(self):
        # the reformulation promises 0 <= u(x_eps) <= u* and small consensus
        qp = self._qp(seed=7)
        X_eps = qp.solve_penalized_exact()
        assert qp.U(X_eps) <= qp.u_star + 1e-9
        from saddleslide import consensus_violation
        R = np.sqrt(qp.R_sq)
        assert consensus_violation(qp.net, X_eps.ravel()) <= 2 * qp.epsilon / R

    def test_tight_box_raises(self):
        qp = self._qp(seed=5)
        qp.box_half_width = 1e-4
        with pytest.raises(DomainError):
            qp.solve_penalized_exact()

    def test_apg_rejects_bad_constants_and_hits_iteration_cap(self):
        with pytest.raises(Exception):
            accelerated_projected_gradient(lambda x: x, lambda x: x,
                                           np.ones(2), 1.0, 2.0, 1e-8)
        with pytest.raises(DomainError):
            accelerated_projected_gradient(lambda x: 0.01 * x, lambda x: x,
                                           np.ones(2) * 100, 1.0, 0.01,
                                           tol=1e-300, max_iter=5)


class TestStochasticOracleModels:
    def test_uniform_noise_meets_variance_budget(self):
        dim, sigma = 8, 0.3
        oracle = make_stochastic_oracle(lambda z: np.zeros(dim), "uniform",
                                        sigma, dim, 0)
        draws = np.array([oracle(np.zeros(dim)) for _ in range(4000)])
        assert abs(draws.mean()) <= 0.01
        assert np.mean(np.sum(draws ** 2, axis=1)) == pytest.approx(
            sigma ** 2, rel=0.1)

    def test_gaussian_noise_bounded_and_under_budget(self):
        dim, sigma = 4, 0.5
        oracle = make_stochastic_oracle(lambda z: np.zeros(dim), "gaussian",
                                        sigma, dim, 1)
        draws = np.array([oracle(np.zeros(dim)) for _ in range(4000)])
        assert np.max(np.abs(draws)) <= 4.0 * sigma / np.sqrt(dim) + 1e-12
        assert np.mean(np.sum(draws ** 2, axis=1)) <= sigma ** 2 * 1.05

    @pytest.mark.parametrize("dim", [1, 16, 5000])
    @pytest.mark.parametrize("kind", ["uniform", "gaussian"])
    def test_noise_blocks_equal_per_call_draws(self, kind, dim):
        sigma = 0.7
        base = np.linspace(-1.0, 1.0, dim)
        oracle = make_stochastic_oracle(lambda z: base + z, kind, sigma, dim, 11)
        rows = max(1, NOISE_BLOCK // dim)
        ref = np.random.default_rng(11)
        a = sigma * np.sqrt(3.0 / dim)
        s = sigma / np.sqrt(dim)
        for i in range(3 * rows + 2):  # crosses three refills
            z = np.full(dim, 0.001 * i)
            if kind == "uniform":
                noise = ref.uniform(-a, a, dim)
            else:
                noise = np.clip(ref.normal(0.0, s, dim), -4.0 * s, 4.0 * s)
            assert np.array_equal(oracle(z), base + z + noise), i

    @pytest.mark.parametrize("kind", ["uniform", "gaussian"])
    def test_oracles_of_one_seed_called_in_alternation_keep_their_own_streams(self, kind):
        # each oracle owns its generator, so interleaved calls of another
        # oracle, even one of the same seed, do not shift its noise rows
        dim = 16
        calls = 2 * (NOISE_BLOCK // dim) + 3  # crosses two refills

        def oracle():
            return make_stochastic_oracle(lambda z: z, kind, 0.5, dim, 7)

        alone = oracle()
        expected = [alone(np.zeros(dim)) for _ in range(calls)]
        first, second = oracle(), oracle()
        for i in range(calls):
            assert np.array_equal(first(np.zeros(dim)), expected[i]), i
            assert np.array_equal(second(np.zeros(dim)), expected[i]), i

    @pytest.mark.parametrize("kind,sigma,error", [
        ("foo", 0.0, ConfigurationError), ("foo", 0.3, ConfigurationError),
        ("uniform", np.nan, ParameterError), ("gaussian", np.inf, ParameterError),
        ("uniform", -0.1, ParameterError)])
    def test_bad_kind_or_sigma_is_rejected(self, kind, sigma, error):
        with pytest.raises(error):
            make_stochastic_oracle(lambda z: z, kind, sigma, 3, 0)

    @pytest.mark.parametrize("dim", [0, -2, 2.0, 2.5, True, None])
    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_dim_must_be_a_positive_integer(self, dim, sigma):
        with pytest.raises(ParameterError, match="dim"):
            make_stochastic_oracle(lambda z: z, "uniform", sigma, dim, 0)

    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    @pytest.mark.parametrize("kind", ["uniform", "gaussian"])
    def test_point_of_another_dimension_is_a_dimension_error(self, kind, sigma):
        oracle = make_stochastic_oracle(lambda z: z, kind, sigma, 3, 0)
        assert oracle(np.zeros(3)).shape == (3,)
        # (1,) and (2, 3) would broadcast against the noise row
        for shape in ((5,), (2,), (3, 2), (1,), (2, 3)):
            with pytest.raises(DimensionError, match=r"\(3,\)"):
                oracle(np.zeros(shape))

    @pytest.mark.parametrize("seed", [1.5, -1, True, None, "3"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            make_stochastic_oracle(lambda z: z, "uniform", 0.3, 3, seed)

    def test_numpy_integer_seed_draws_as_the_int(self):
        a = make_stochastic_oracle(lambda z: z, "uniform", 0.3, 3, np.int64(5))
        b = make_stochastic_oracle(lambda z: z, "uniform", 0.3, 3, 5)
        assert np.array_equal(a(np.zeros(3)), b(np.zeros(3)))

    def test_zero_sigma_returns_exact_oracle(self):
        dim = 3
        oracle = make_stochastic_oracle(lambda z: z * 2.0, "uniform", 0.0, dim, 0)
        z = np.arange(3.0)
        assert np.array_equal(oracle(z), 2.0 * z)

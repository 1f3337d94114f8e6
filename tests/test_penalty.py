"""Tests for the consensus penalty: coefficients, penalized VI, reductions."""

import hashlib
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddleslide import (
    MATCHING_PENNIES,
    ConfigurationError,
    DimensionError,
    NetworkModel,
    ParameterError,
    PenaltyCoefficients,
    build_penalized_vi,
    build_topology,
    consensus_violation,
    deterministic_schedule,
    exact_gap_matrix_game,
    l1_saddle_gap,
    make_l1_saddle,
    make_matrix_game,
    mps_run,
    operator_bound_L0,
    penalty_coefficients,
    random_l1_saddle,
    random_matrix_game,
)
from saddleslide import instances

from reference_oracles import BilinearNode, L1Node, two_product_value_G

rng = np.random.default_rng(1207)


def pennies_stack(m):
    return make_matrix_game([MATCHING_PENNIES.copy() for _ in range(m)])


def with_bounds(spp, bound_x, bound_y):
    return replace(spp, subgrad_bound_x=bound_x, subgrad_bound_y=bound_y)


def join(X, Y):
    # stacked point from per-node rows: all x blocks, then all y blocks
    return np.concatenate((X.ravel(), Y.ravel()))


def central_fd_gradient(f, z, h=1e-6):
    g = np.zeros_like(z)
    for i in range(z.size):
        e = np.zeros_like(z)
        e[i] = h
        g[i] = (f(z + e) - f(z - e)) / (2.0 * h)
    return g


class TestPenaltyCoefficients:
    def test_frozen_values(self):
        k3 = build_topology("complete", 3)
        spp = pennies_stack(3)
        coeffs = penalty_coefficients(with_bounds(spp, 1.0, 1.0), k3, 0.1)
        assert coeffs.R_alpha_sq == pytest.approx(1.0 / 3.0, rel=1e-9)
        path2 = build_topology("path", 2)
        spp2 = pennies_stack(2)
        coeffs = penalty_coefficients(with_bounds(spp2, 5.0, 1.0), path2, 0.1)
        assert coeffs.R_alpha_sq == pytest.approx(12.5, rel=1e-9)
        assert coeffs.R_beta_sq == pytest.approx(0.5, rel=1e-9)
        coeffs = penalty_coefficients(with_bounds(spp2, 0.0, 0.0), path2, 0.1)
        assert coeffs.R_alpha_sq == 0.0
        assert coeffs.R_beta_sq == 0.0

    def test_single_node_network_gives_zero_radii(self):
        # W_tilde = 0 has no positive eigenvalue, and G vanishes for any R
        single = build_topology("single", 1)
        for eps in (0.1, 1):
            coeffs = penalty_coefficients(pennies_stack(1), single, eps)
            assert coeffs == PenaltyCoefficients(0.0, 0.0, float(eps))
            assert type(coeffs.epsilon) is float

    def test_node_count_mismatch_rejected(self):
        spp = pennies_stack(3)
        net = build_topology("ring", 4)
        with pytest.raises(DimensionError):
            penalty_coefficients(spp, net, 0.1)

    def test_invalid_inputs_rejected(self):
        spp = pennies_stack(2)
        net = build_topology("path", 2)
        with pytest.raises(ParameterError):
            penalty_coefficients(spp, net, 0.0)
        for bounds in ((-1.0, 1.0), (1.0, np.inf), (np.nan, 1.0)):
            with pytest.raises(ParameterError, match="subgrad_bound"):
                penalty_coefficients(with_bounds(spp, *bounds), net, 0.1)
        with pytest.raises(ParameterError):
            PenaltyCoefficients(1.0, 1.0, -0.5)


class TestBuildPenalizedVI:
    def _vi(self, m=3, eps=0.1, kind="complete"):
        spp = pennies_stack(m)
        net = build_topology(kind, m)
        coeffs = penalty_coefficients(spp, net, eps)
        return spp, net, coeffs, build_penalized_vi(spp, net, coeffs)

    def test_smoothness_constant_formula(self):
        spp, net, coeffs, vi = self._vi()
        cx = 2.0 * coeffs.R_alpha_sq / 0.1
        cy = 2.0 * coeffs.R_beta_sq / 0.1
        assert vi.L == pytest.approx(max(cx * net.lambda_max,
                                         cy * net.lambda_max), rel=1e-12)

    def test_oracle_synthesis_constants(self):
        spp, _, _, vi = self._vi(eps=0.05)
        assert vi.M == pytest.approx(spp.operator_bound ** 2 / (2 * 0.05), rel=1e-12)
        assert vi.delta == pytest.approx(0.1, rel=1e-12)

    def test_gradient_vanishes_on_consensus(self):
        spp, _, _, vi = self._vi()
        x = rng.dirichlet(np.ones(2))
        y = rng.dirichlet(np.ones(2))
        z = join(np.tile(x, (3, 1)), np.tile(y, (3, 1)))
        assert np.max(np.abs(vi.grad_G(z))) <= 1e-12
        assert vi.value_G(z) <= 1e-14

    def test_gradient_matches_central_differences(self):
        spp, _, _, vi = self._vi(kind="ring", m=4)
        for _ in range(10):
            z = spp.stacked_set().sample(rng, 1)[0]
            g = vi.grad_G(z)
            fd = central_fd_gradient(vi.value_G, z)
            denom = max(1.0, float(np.linalg.norm(g)))
            assert np.linalg.norm(g - fd) / denom <= 1e-6

    def test_value_positive_off_consensus(self):
        spp, _, _, vi = self._vi()
        z = spp.stacked_set().sample(rng, 1)[0]
        X, Y = spp.split(z)
        if np.max(np.abs(X - X.mean(axis=0))) > 1e-8:
            assert vi.value_G(z) > 0.0

    def test_one_round_per_grad_G(self):
        spp = pennies_stack(3)
        net = build_topology("complete", 3)
        coeffs = penalty_coefficients(spp, net, 0.1)
        vi = build_penalized_vi(spp, net, coeffs)
        assert vi.rounds_per_grad_G == 1

    @pytest.mark.parametrize("family", ["game", "l1"])
    def test_value_and_gradient_each_take_one_exchange(self, monkeypatch, family):
        spp = (random_matrix_game(5, 3, 2, seed=1) if family == "game"
               else random_l1_saddle(5, 3, 2, seed=1))
        net = build_topology("ring", 5)
        coeffs = penalty_coefficients(spp, net, 0.1)
        vi = build_penalized_vi(spp, net, coeffs)
        widths = []
        product = NetworkModel.block_product

        def counted(self, V):
            widths.append(V.shape[1])
            return product(self, V)

        points = spp.stacked_set().sample(np.random.default_rng(2), 20)
        reference = [two_product_value_G(net, coeffs, 5, 3, 2, z) for z in points]
        monkeypatch.setattr(NetworkModel, "block_product", counted)
        for z, expected in zip(points, reference):
            vi.grad_G(z)
            assert widths == [5]
            value = vi.value_G(z)
            assert widths == [5, 5]
            widths.clear()
            assert type(value) is float
            assert np.float64(value).tobytes() == np.float64(expected).tobytes()

    def test_single_node_reduces_to_centralized(self):
        spp = pennies_stack(1)
        single = build_topology("single", 1)
        coeffs = PenaltyCoefficients(0.0, 0.0, 0.1)
        vi = build_penalized_vi(spp, single, coeffs)
        assert vi.rounds_per_grad_G == 0
        z = spp.stacked_set().sample(rng, 1)[0]
        assert np.max(np.abs(vi.grad_G(z))) == 0.0
        assert vi.value_G(z) == 0.0
        assert vi.L == max(vi.M, 1.0)
        # the penalized VI is exactly the centralized saddle problem; the
        # exact bilinear oracle is 2-Lipschitz <= M so (M, 0) certifies it and
        # the gap obeys 6 L Omega^2 / N^2 (no delta term)
        from saddleslide import exact_gap_matrix_game, omega_sq_bound
        z0 = np.array([0.9, 0.1, 0.2, 0.8])
        omega_sq = omega_sq_bound(vi.set_geometry, z0)
        N = 64
        bound = 6.0 * vi.L * omega_sq / N ** 2
        assert bound <= 0.05
        sched = deterministic_schedule(vi.L, vi.M, N)
        final = mps_run(vi, sched, z0)
        X, Y = spp.split(final)
        gap = exact_gap_matrix_game(spp.meta["A_bar"], X[0], Y[0])
        assert gap <= bound

    def test_epsilon_is_the_coefficients_epsilon(self):
        # eps is read from the coefficients, so the radii and the oracle
        # constants cannot be built for two different accuracies
        spp = pennies_stack(3)
        net = build_topology("complete", 3)
        for eps in (0.1, 0.2):
            coeffs = penalty_coefficients(with_bounds(spp, 1.0, 1.0), net, eps)
            vi = build_penalized_vi(spp, net, coeffs)
            assert vi.delta == 2.0 * eps
            assert vi.M == spp.operator_bound ** 2 / (2.0 * eps)
            assert vi.L == 2.0 * coeffs.R_alpha_sq / eps * net.lambda_max

    def test_node_count_mismatch_rejected(self):
        spp = pennies_stack(3)
        net4 = build_topology("ring", 4)
        coeffs = PenaltyCoefficients(1.0, 1.0, 0.1)
        with pytest.raises(ConfigurationError):
            build_penalized_vi(spp, net4, coeffs)


class TestStackedSPP:
    def test_split_join_roundtrip(self):
        spp = pennies_stack(4)
        z = spp.stacked_set().sample(rng, 1)[0]
        X, Y = spp.split(z)
        assert X.shape == (4, 2) and Y.shape == (4, 2)
        assert np.array_equal(join(X, Y), z)

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 5), d_x=st.integers(1, 5), d_y=st.integers(1, 5),
           seed=st.integers(0, 2 ** 16))
    def test_linear_H_fast_path_matches_per_node_oracles(self, m, d_x, d_y, seed):
        for spp in (pennies_stack(m), random_matrix_game(m, d_x, d_y, seed=seed)):
            A = spp.meta["A"]
            for z in spp.stacked_set().sample(np.random.default_rng(seed), 5):
                X, Y = spp.split(z)
                pairs = [BilinearNode(A[i]).h(X[i], Y[i]) for i in range(spp.m)]
                ref = np.concatenate([hx for hx, _ in pairs] + [hy for _, hy in pairs])
                assert np.allclose(spp.H(z), ref, rtol=0.0, atol=1e-12)

    def test_game_operator_is_row_sparse(self):
        # k = max(d_x, d_y) entries per row: every array the game's operator
        # closes over has shape (dim, k), so a dim x dim operator cannot
        # come back unnoticed
        for m, d_x, d_y in ((1, 2, 2), (3, 1, 4), (64, 3, 2)):
            spp = random_matrix_game(m, d_x, d_y, seed=m)
            arrays = [cell.cell_contents for cell in spp.batched_H.__closure__
                      if isinstance(cell.cell_contents, np.ndarray)]
            assert arrays
            assert all(a.shape == (spp.dim, max(d_x, d_y)) for a in arrays)

    def test_no_nodes_rejected(self):
        with pytest.raises(ParameterError):
            replace(pennies_stack(2), m=0)

    @pytest.mark.parametrize("bad", [None, "row-sparse values", "dense matrix"])
    def test_operator_that_is_not_callable_rejected(self, bad):
        game = pennies_stack(2)
        bad = {"row-sparse values": game.linear_H,
               "dense matrix": np.zeros((game.dim, game.dim))}.get(bad)
        for spp in (random_l1_saddle(2, 2, 2, seed=0), game):
            with pytest.raises(ParameterError, match="batched_H"):
                replace(spp, batched_H=bad)

    def test_center_is_feasible_consensus(self):
        spp = pennies_stack(3)
        z = spp.center()
        assert spp.stacked_set().contains(z)
        X, Y = spp.split(z)
        assert np.max(np.abs(X - X[0])) == 0.0

    def test_sampled_operator_bound_is_the_inflated_sample_max(self):
        spp = random_l1_saddle(2, 2, 3, seed=5)
        pts = spp.stacked_set().sample(np.random.default_rng(5), 200)
        worst = max(float(np.linalg.norm(spp.H(p))) for p in pts)
        assert operator_bound_L0(spp, 200, seed=5) == pytest.approx(1.1 * worst)


# Leading shapes of a batch of points: one point, a row of points, a grid.
lead_shapes = st.one_of(st.just(()), st.tuples(st.integers(1, 6)),
                        st.tuples(st.integers(1, 3), st.integers(1, 3)))
dims = st.integers(1, 5)
sizes = st.integers(1, 6)


def batch_of_points(spp, lead, seed):
    pts = spp.stacked_set().sample(np.random.default_rng(seed), math.prod(lead))
    return pts.reshape(*lead, spp.dim)


def l1_instance_with_kinks(m, d_x, d_y, lead, seed):
    """A diagonal l1 instance, b of either sign and some b entries zero, and
    points of shape lead + (dim,) with kinks: about half of the x entries
    sit where b * x = c exactly, and about 40 % of the y entries are +0 or
    -0."""
    g = np.random.default_rng(seed)
    b = g.uniform(-1.5, 1.5, (m, d_x))
    b[g.random(b.shape) < 0.2] = 0.0
    x0 = g.uniform(-1.0, 1.0, (m, d_x))
    c = np.where(g.random(b.shape) < 0.5, b * x0, g.uniform(-1.0, 1.0, b.shape))
    spp = make_l1_saddle(list(b), list(c), list(g.uniform(-0.5, 0.5, (m, d_y, d_x))),
                         1.0)
    Z = batch_of_points(spp, lead, seed + 1)
    X, Y = Z[..., :m * d_x], Z[..., m * d_x:]
    kink = g.random(X.shape) < 0.5
    X[kink] = np.broadcast_to(x0.ravel(), X.shape)[kink]
    r = g.random(Y.shape)
    Y[r < 0.2] = 0.0
    Y[(r >= 0.2) & (r < 0.4)] = -0.0
    return spp, Z


def per_point_H(spp, Z):
    """Reference: spp.H called once per point of the batch."""
    rows = Z.reshape(-1, Z.shape[-1])
    return np.array([spp.H(z) for z in rows]).reshape(Z.shape)


def reused_buffer_H(spp, Z):
    """spp.H called once per point of the batch on one 1-D buffer, refilled
    with np.copyto before each call, as the solver reuses its work buffers."""
    rows = Z.reshape(-1, Z.shape[-1])
    buf = np.empty(Z.shape[-1])
    out = []
    for z in rows:
        np.copyto(buf, z)
        out.append(spp.H(buf))
    return np.array(out).reshape(Z.shape)


def dense_game_operator(A3):
    """Reference: the dim x dim matrix of a stacked game's H, block by block."""
    m, d_y, d_x = A3.shape
    dim = m * (d_x + d_y)
    B_op = np.zeros((dim, dim))
    for i in range(m):
        xs = slice(i * d_x, (i + 1) * d_x)
        ys = slice(m * d_x + i * d_y, m * d_x + (i + 1) * d_y)
        B_op[xs, ys] = A3[i].T
        B_op[ys, xs] = -A3[i]
    return B_op


class TestRowWiseH:
    @settings(max_examples=60, deadline=None)
    @given(m=sizes, d_x=sizes, d_y=sizes, lead=lead_shapes,
           seed=st.integers(0, 2 ** 16))
    def test_l1_batch_rows_equal_single_point_calls_bitwise(
            self, m, d_x, d_y, lead, seed):
        # bytes, not values: a signed zero on a kink must match as well
        spp, Z = l1_instance_with_kinks(m, d_x, d_y, lead, seed)
        out = spp.H(Z)
        assert out.shape == Z.shape
        assert out.tobytes() == per_point_H(spp, Z).tobytes()
        assert out.tobytes() == reused_buffer_H(spp, Z).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(m=dims, d_x=dims, d_y=dims, lead=lead_shapes,
           seed=st.integers(0, 2 ** 16))
    def test_matrix_game_batch_rows_match_single_point_calls(
            self, m, d_x, d_y, lead, seed):
        # the row-sparse einsum sums the k entries of each row in the same
        # inner loop for a batch as for a point, so rows are bitwise equal
        spp = random_matrix_game(m, d_x, d_y, seed=seed)
        Z = batch_of_points(spp, lead, seed + 1)
        out = spp.H(Z)
        assert out.shape == Z.shape
        assert np.array_equal(out, per_point_H(spp, Z))

    @settings(max_examples=60, deadline=None)
    @given(m=dims, d_x=dims, d_y=dims, lead=lead_shapes,
           seed=st.integers(0, 2 ** 16))
    def test_matrix_game_H_matches_dense_operator(self, m, d_x, d_y, lead, seed):
        for spp in (pennies_stack(m), random_matrix_game(m, d_x, d_y, seed=seed)):
            Z = batch_of_points(spp, lead, seed + 1)
            ref = Z @ dense_game_operator(spp.meta["A"]).T
            assert np.allclose(spp.H(Z), ref, rtol=0.0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(m=sizes, d_x=sizes, d_y=sizes, seed=st.integers(0, 2 ** 16))
    def test_l1_H_matches_per_node_oracles(self, m, d_x, d_y, seed):
        # each node's block equals L1Node(b_i, c_i, C_i).h bit for bit,
        # signed zeros on kinks included
        spp, z = l1_instance_with_kinks(m, d_x, d_y, (), seed)
        b, c, C = spp.meta["b"], spp.meta["c"], spp.meta["C"]
        X, Y = spp.split(z)
        pairs = [L1Node(b[i], c[i], C[i]).h(X[i], Y[i]) for i in range(m)]
        ref = np.concatenate([hx for hx, _ in pairs] + [hy for _, hy in pairs])
        assert spp.H(z).tobytes() == ref.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(m=dims, d_x=dims, d_y=dims, samples=st.integers(1, 300),
           seed=st.integers(0, 2 ** 16))
    def test_sampled_operator_bound_equals_row_by_row_max_bitwise(
            self, m, d_x, d_y, samples, seed):
        spp = random_l1_saddle(m, d_x, d_y, seed=seed)
        pts = spp.stacked_set().sample(np.random.default_rng(seed), samples)
        worst = max(float(np.linalg.norm(spp.H(row))) for row in pts)
        assert operator_bound_L0(spp, samples, seed) == 1.1 * worst


class TestBoundL1H:
    """An l1 H keeps a kernel bound to each of its last L1_H_BUFFERS 1-D
    arguments; what it returns must not depend on that memo."""

    def test_a_kept_result_does_not_change_on_a_later_call(self):
        spp = random_l1_saddle(3, 2, 2, seed=0)
        Z = spp.stacked_set().sample(np.random.default_rng(0), 2)
        buf = Z[0].copy()
        first = spp.H(buf)
        kept = first.tobytes()
        np.copyto(buf, Z[1])
        second = spp.H(buf)
        assert first.tobytes() == kept != second.tobytes()
        assert second.tobytes() == spp.H(Z[1].copy()).tobytes()

    def test_at_most_the_last_few_arguments_are_kept_alive(self):
        spp = random_l1_saddle(2, 2, 2, seed=0)
        Z = spp.stacked_set().sample(np.random.default_rng(1), 100)
        refs = []
        for z in Z:
            arg = z.copy()
            spp.H(arg)
            refs.append(weakref.ref(arg))
        del arg
        assert instances.L1_H_BUFFERS == 4
        assert all(r() is None for r in refs[:-instances.L1_H_BUFFERS])

    @pytest.mark.parametrize("step", [2, 3])
    def test_strided_view_gives_the_bytes_of_its_copy(self, step):
        spp, Z = l1_instance_with_kinks(3, 2, 3, (2,), seed=7)
        big = np.zeros(step * spp.dim)
        view = big[::step]
        for z in Z:
            view[...] = z
            assert spp.H(view).tobytes() == spp.H(view.copy()).tobytes()
        assert spp.H(big[::step]).tobytes() == spp.H(Z[-1]).tobytes()


class TestRowWiseOracles:
    """The gap oracles and ``consensus_violation`` follow H's row-wise
    contract: a batch along the leading axes gives one value per row,
    bitwise the single-point call on that row, and a point gives a float."""

    @staticmethod
    def check_rows_bitwise(spp, net, Z):
        lead, cut = Z.shape[:-1], spp.m * spp.d_x
        X, Y = spp.split(Z)
        xb, yb = X.mean(axis=-2), Y.mean(axis=-2)
        if spp.meta["family"] == "matrix_game":
            def gap(x, y):
                return exact_gap_matrix_game(spp.meta["A_bar"], x, y)
        else:
            def gap(x, y):
                return l1_saddle_gap(spp, x, y)
        pairs = zip(xb.reshape(-1, spp.d_x), yb.reshape(-1, spp.d_y))
        singles = {"gap": [gap(x, y) for x, y in pairs],
                   "x": [consensus_violation(net, z[:cut]) for z in Z.reshape(-1, spp.dim)],
                   "y": [consensus_violation(net, z[cut:]) for z in Z.reshape(-1, spp.dim)]}
        batched = {"gap": gap(xb, yb), "x": consensus_violation(net, Z[..., :cut]),
                   "y": consensus_violation(net, Z[..., cut:])}
        for name, out in batched.items():
            assert all(type(v) is float for v in singles[name]), name
            if lead:
                assert out.shape == lead, name
                assert np.array_equal(out.ravel(), singles[name]), name
            else:
                assert type(out) is float and out == singles[name][0], name

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 6), d_x=dims, d_y=dims, lead=lead_shapes,
           family=st.sampled_from(["game", "l1"]), seed=st.integers(0, 2 ** 16))
    def test_rows_equal_single_point_calls_bitwise(self, m, d_x, d_y, lead, family, seed):
        spp = (random_matrix_game(m, d_x, d_y, seed=seed) if family == "game"
               else random_l1_saddle(m, d_x, d_y, seed=seed))
        net = build_topology("single" if m == 1 else "ring", m)
        self.check_rows_bitwise(spp, net, batch_of_points(spp, lead, seed + 1))

    @pytest.mark.parametrize("family", ["game", "l1"])
    def test_rows_equal_single_point_calls_bitwise_on_ring_256(self, family):
        # 256 nodes: the node means and W V sum over more rows than one
        # unrolled block, and a batch of 300 rows of 768 floats is larger
        # than the harness's blocks of 4 * CONSENSUS_CHUNK floats
        spp = (random_matrix_game(256, 3, 3, seed=4) if family == "game"
               else random_l1_saddle(256, 2, 2, seed=4))
        self.check_rows_bitwise(spp, build_topology("ring", 256),
                                batch_of_points(spp, (300,), 5))

    def test_single_node_consensus_is_zero(self):
        Z = np.random.default_rng(2).uniform(-1.0, 1.0, (4, 3))
        single = build_topology("single", 1)
        out = consensus_violation(single, Z)
        assert out.shape == (4,) and not out.any()
        assert consensus_violation(single, Z[0]) == 0.0

    def test_oracles_reject_mismatched_batches(self):
        net = build_topology("ring", 3)
        for shape in ((2, 4), (0,), (2, 0)):
            with pytest.raises(DimensionError):
                consensus_violation(net, np.zeros(shape))
        spp = random_l1_saddle(2, 2, 2, seed=0)
        with pytest.raises(DimensionError):
            l1_saddle_gap(spp, np.zeros((3, 2)), np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            exact_gap_matrix_game(np.eye(2), np.full((3, 2), 0.5), np.full((2, 2), 0.5))


def hops_from(net, source):
    """Graph distance from ``source`` to every node of ``net``, by
    breadth-first search over its edges."""
    neighbours = [[] for _ in range(net.m)]
    for i, j in net.edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
    dist = {source: 0}
    frontier = [source]
    while frontier:
        reached = []
        for i in frontier:
            for j in neighbours[i]:
                if j not in dist:
                    dist[j] = dist[i] + 1
                    reached.append(j)
        frontier = reached
    return dist


class TestLocality:
    """The method is decentralized: in one outer iteration a node reads its
    own oracle and what rounds_per_grad_G gossip rounds bring from its
    neighbours. So a change to one node's start block reaches, by outer
    iteration k, only the nodes within k * rounds_per_grad_G hops of it."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["ring", "path", "complete"]), m=st.integers(2, 16),
           family=st.sampled_from(["game", "l1"]), d_x=st.integers(2, 3),
           d_y=st.integers(2, 3), node=st.integers(0, 15), seed=st.integers(0, 2 ** 16))
    def test_a_changed_start_block_reaches_only_the_nodes_k_rounds_away(
            self, kind, m, family, d_x, d_y, node, seed):
        node %= m
        spp, eps = ((random_matrix_game(m, d_x, d_y, seed=seed), 0.1) if family == "game"
                    else (random_l1_saddle(m, d_x, d_y, seed=seed), 0.4))
        net = build_topology(kind, m)
        vi = build_penalized_vi(spp, net, penalty_coefficients(spp, net, eps))
        schedule = deterministic_schedule(vi.L, vi.M, 3)
        start, other = spp.stacked_set().sample(np.random.default_rng(seed), 2)
        changed = start.copy()
        for block, replacement in zip(spp.split(changed), spp.split(other)):
            block[node] = replacement[node]  # split gives views of the point

        def node_bytes(z_bars):
            return [[X[i].tobytes() + Y[i].tobytes() for i in range(m)]
                    for X, Y in map(spp.split, z_bars)]

        runs = []
        for z0 in (start, changed):
            z_bars = []
            mps_run(vi, schedule, z0, observer=lambda k, z_bar: z_bars.append(z_bar.copy()))
            runs.append(node_bytes(z_bars))
        dist = hops_from(net, node)
        for k, (a, b) in enumerate(zip(*runs), start=1):
            differ = {i for i in range(m) if a[i] != b[i]}
            assert node in differ
            assert max(dist[i] for i in differ) <= k * vi.rounds_per_grad_G, (k, differ)


class TestZeroOperator:
    """An all-zero payoff game: H = 0, so L0 = M = 0 and both subgradient
    bounds are 0. G then vanishes identically on every network, each outer
    iteration takes one inner step and no round, and every prox returns its
    anchor, so the method returns its start."""

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["single", "ring", "complete"]), m=st.integers(2, 8),
           d_x=st.integers(1, 3), d_y=st.integers(1, 3), N=st.integers(1, 6),
           seed=st.integers(0, 2 ** 16))
    def test_zero_payoffs_return_the_start(self, kind, m, d_x, d_y, N, seed):
        m = 1 if kind == "single" else m
        spp = make_matrix_game(np.zeros((m, d_y, d_x)))
        spp.operator_bound = operator_bound_L0(spp, samples=10, seed=seed)
        net = build_topology(kind, m)
        vi = build_penalized_vi(spp, net, penalty_coefficients(spp, net, 0.1))
        assert spp.operator_bound == 0.0 and vi.M == 0.0
        assert vi.L == 1.0 and vi.rounds_per_grad_G == 0
        schedule = deterministic_schedule(vi.L, vi.M, N)
        assert schedule.T.tolist() == [1] * N
        calls = []

        def counted_H(z):
            calls.append(z.shape)
            return vi.H(z)

        z0 = spp.stacked_set().sample(np.random.default_rng(seed), 1)[0]
        final = mps_run(replace(vi, H=counted_H), schedule, z0)
        assert calls == [z0.shape] * (2 * N)
        assert np.max(np.abs(final - z0)) <= 1e-12


# sha256 of the (3, 64) float64 array of node-averaged gap, consensus_x and
# consensus_y over 64 points sampled from the stacked set with
# default_rng(1): a random game (m = 6, d_x = 3, d_y = 2) on ring-6 and an
# l1 instance (m = 8, d_x = 4, d_y = 3) on ring-8, both with instance seed
# 0. The values were taken with one oracle call per point and per column;
# the row-wise calls must reproduce every bit.
PINNED_ORACLE_COLUMNS = {
    "game": "5669fba5e4fc729159d5ec7fa72d1acf7d64aaf8f9e409eca7b592d59833734e",
    "l1": "fb1507aafa97774e6d6340297fce38610596e12387d170e759fa62f7e7b4d753",
}


@pytest.mark.parametrize("family", sorted(PINNED_ORACLE_COLUMNS))
def test_oracle_columns_match_pinned_bytes(family):
    if family == "game":
        spp, net = random_matrix_game(6, 3, 2, seed=0), build_topology("ring", 6)
        gap = exact_gap_matrix_game
        args = (spp.meta["A_bar"],)
    else:
        spp, net = random_l1_saddle(8, 4, 3, seed=0), build_topology("ring", 8)
        gap = l1_saddle_gap
        args = (spp,)
    Z = spp.stacked_set().sample(np.random.default_rng(1), 64)
    X, Y = spp.split(Z)
    cut = spp.m * spp.d_x
    cols = np.stack([gap(*args, X.mean(axis=-2), Y.mean(axis=-2)),
                     consensus_violation(net, Z[:, :cut]),
                     consensus_violation(net, Z[:, cut:])])
    assert hashlib.sha256(cols.tobytes()).hexdigest() == PINNED_ORACLE_COLUMNS[family]


# sha256 of 64 points sampled from the stacked set with default_rng(seed),
# and of H on that batch, for a random game (m = 6, d_x = 3, d_y = 2) and an
# l1 instance (m = 5, d_x = 3, d_y = 2), both with instance seed 0. Unlike
# the pinned runs of test_harness.py, where the prox step absorbs a one-ulp
# change of single H entries, these hashes see every bit of the sampled
# points and of H.
PINNED_SAMPLE_H = {
    ("game", 0): ("7369988ed8f174615d17f095f187fdf8010ea0e3f6611d3e84f14a82b0561640",
                  "1329ff086f57184e2e2b024fcfa6bfa403291777f9b451fdf75ffdbad6be1371"),
    ("game", 1): ("fccffff9a811d534680436ff7c02ff8f4d0af3168a9563d25e55aefc15a94c4f",
                  "611e85cbbeb1e61defbbbac8a2d10d2b0b8fb2d9f6d099a776e3b5458214440a"),
    ("l1", 0): ("23ee2dd47322912f46a20d8a24d966a75ad9b4f83215e43bf6e4a776d9b5490b",
                "fb0f882caa513badadd18d089f0882004f728c177fe7774f3fee85a6cd6832a3"),
    ("l1", 1): ("0cfef9cfa4d6cd525435646c0720bc0b7bc097ec0eb7b97e5dd6fe128cffff67",
                "84a90c425a0f97877cbcea6f3d2ca8d4ebc784622a94cf0df8610c0e7bb9cc7b"),
}


@pytest.mark.parametrize("family,seed", sorted(PINNED_SAMPLE_H))
def test_sampled_points_and_H_match_pinned_bytes(family, seed):
    spp = (random_matrix_game(6, 3, 2, seed=0) if family == "game"
           else random_l1_saddle(5, 3, 2, seed=0))
    Z = spp.stacked_set().sample(np.random.default_rng(seed), 64)
    H = spp.H(Z)
    assert Z.shape == H.shape == (64, spp.dim)
    assert (hashlib.sha256(Z.tobytes()).hexdigest(),
            hashlib.sha256(H.tobytes()).hexdigest()) == PINNED_SAMPLE_H[family, seed]

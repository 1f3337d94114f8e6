"""Tests for network topologies, spectra and gossip products."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import saddleslide.cli as cli
from saddleslide import (
    DegenerateNetworkError,
    DimensionError,
    DomainError,
    NetworkModel,
    ParameterError,
    RunConfig,
    TOPOLOGY_KINDS,
    build_topology,
    consensus_violation,
)
from saddleslide.network import MAX_NODES, matrix_sqrt_psd

rng = np.random.default_rng(1207)


def sorted_eigs(net):
    return np.sort(np.linalg.eigvalsh(net.W_tilde))


def topology(kind, m):
    if kind == "single":
        return NetworkModel.single_node()
    return build_topology(kind, m, p=0.4 if kind == "erdos_renyi" else None, seed=3)


def laplacian(m, edges):
    A = np.zeros((m, m))
    for i, j in edges:
        A[i, j] = A[j, i] = 1.0
    return np.diag(A.sum(axis=1)) - A


def two_pass_block_product(net, V):
    # the per-edge exchange as two 2-D np.subtract.at passes, first into the
    # edge_i rows and then into the edge_j rows
    out = net._degree[:, None] * V
    if net._edge_i.size:
        np.subtract.at(out, net._edge_i, net._edge_w[:, None] * V[net._edge_j])
        np.subtract.at(out, net._edge_j, net._edge_w[:, None] * V[net._edge_i])
    return out


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestSpectra:
    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_complete_graph_closed_form(self, m):
        net = build_topology("complete", m)
        expected = np.array([0.0] + [float(m)] * (m - 1))
        assert np.max(np.abs(sorted_eigs(net) - expected)) <= 1e-9
        assert net.lambda_max == pytest.approx(m, abs=1e-9)
        assert net.lambda_min_plus == pytest.approx(m, abs=1e-9)
        assert net.chi == pytest.approx(1.0, abs=1e-9)

    def test_ring_four_closed_form(self):
        net = build_topology("ring", 4)
        assert np.max(np.abs(sorted_eigs(net) - [0.0, 2.0, 2.0, 4.0])) <= 1e-9
        assert net.lambda_min_plus == pytest.approx(2.0, abs=1e-9)
        assert net.chi == pytest.approx(2.0, abs=1e-9)

    def test_path_two_and_three_closed_form(self):
        net2 = build_topology("path", 2)
        assert np.max(np.abs(sorted_eigs(net2) - [0.0, 2.0])) <= 1e-9
        net3 = build_topology("path", 3)
        assert np.max(np.abs(sorted_eigs(net3) - [0.0, 1.0, 3.0])) <= 1e-9

    def test_star_four_closed_form(self):
        net = build_topology("star", 4)
        assert np.max(np.abs(sorted_eigs(net) - [0.0, 1.0, 1.0, 4.0])) <= 1e-9

    @pytest.mark.parametrize("m", [3, 6])
    def test_ring_closed_form_general(self, m):
        net = build_topology("ring", m)
        expected = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(m) / m))
        assert np.max(np.abs(sorted_eigs(net) - expected)) <= 1e-9

    def test_sqrt_factorization_residual(self):
        for kind, m in [("ring", 4), ("complete", 5), ("star", 6), ("path", 7)]:
            net = build_topology(kind, m)
            assert np.linalg.norm(net.W @ net.W - net.W_tilde) <= 1e-8


class TestMatrixSqrt:
    def test_identity_and_diagonal(self):
        assert np.allclose(matrix_sqrt_psd(np.eye(3)), np.eye(3))
        root = matrix_sqrt_psd(np.diag([0.0, 4.0]))
        assert np.allclose(root, np.diag([0.0, 2.0]), atol=1e-12)

    def test_random_psd_roundtrip(self):
        A = rng.normal(size=(6, 6))
        S = A @ A.T
        root = matrix_sqrt_psd(S)
        assert np.allclose(root @ root, S, atol=1e-8)
        assert np.allclose(root, root.T)

    def test_rejects_non_psd_and_asymmetric(self):
        with pytest.raises(DomainError):
            matrix_sqrt_psd(np.diag([1.0, -1.0]))
        bad = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(DomainError):
            matrix_sqrt_psd(bad)
        with pytest.raises(DimensionError):
            matrix_sqrt_psd(np.ones((2, 3)))
        with pytest.raises(DimensionError):
            matrix_sqrt_psd(np.zeros((0, 0)))

    def test_clamps_eigenvalue_noise(self):
        S = np.diag([1e-12, 1.0])
        S[0, 0] = -1e-12
        root = matrix_sqrt_psd(S)
        assert np.all(np.isfinite(root))


class TestCommunication:
    @pytest.mark.parametrize("kind,m", [("ring", 5), ("complete", 4),
                                        ("star", 6), ("path", 3)])
    def test_edge_exchange_matches_dense_product(self, kind, m):
        net = build_topology(kind, m)
        V = rng.normal(size=(m, 3))
        assert np.max(np.abs(net.block_product(V) - net.W_tilde @ V)) <= 1e-12

    @pytest.mark.parametrize("kind,m", [("ring", 2), ("ring", 7), ("path", 5),
                                        ("star", 6), ("complete", 5),
                                        ("erdos_renyi", 9), ("single", 1)])
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6])
    def test_flat_exchange_is_bitwise_two_pass_product(self, kind, m, width):
        net = topology(kind, m)
        V = rng.normal(size=(m, width)) * 10.0 ** rng.uniform(-8, 8, size=(m, width))
        assert_same_bits(net.block_product(V), two_pass_block_product(net, V))

    def test_exchange_cache_is_keyed_by_width(self):
        net = build_topology("erdos_renyi", 8, p=0.5, seed=4)
        for width in [3, 1, 6, 3, 2, 1, 6]:
            V = rng.normal(size=(8, width))
            assert_same_bits(net.block_product(V), two_pass_block_product(net, V))
        assert sorted(net._flat_exchanges) == [1, 2, 3, 6]

    @pytest.mark.parametrize("shape", [(4,), (3, 2), (5, 2), (4, 2, 2)])
    def test_block_product_rejects_other_shapes(self, shape):
        net = build_topology("ring", 4)
        with pytest.raises(DimensionError):
            net.block_product(np.ones(shape))

    @pytest.mark.parametrize("kind,m", [("ring", 5), ("erdos_renyi", 9)])
    def test_model_built_from_its_public_fields_gossips_as_from_matrix(self, kind, m):
        net = topology(kind, m)
        direct = NetworkModel(m=net.m, W_tilde=net.W_tilde, W=net.W,
                              lambda_max=net.lambda_max,
                              lambda_min_plus=net.lambda_min_plus, chi=net.chi)
        assert direct.edges == net.edges
        for width in (1, 3):
            V = rng.normal(size=(m, width))
            assert_same_bits(direct.block_product(V), net.block_product(V))

    def test_consensus_vector_is_annihilated(self):
        net = build_topology("complete", 5)
        V = np.tile(rng.normal(size=3), (5, 1))
        assert consensus_violation(net, V.ravel()) <= 1e-12
        assert np.max(np.abs(net.block_product(V))) <= 1e-12


class TestConsensusViolation:
    def test_frozen_path_two_value(self):
        net = build_topology("path", 2)
        assert consensus_violation(net, np.array([1.0, 0.0])) == pytest.approx(
            1.0, abs=1e-12)

    def test_absolute_homogeneity(self):
        net = build_topology("ring", 5)
        v = rng.normal(size=10)
        base = consensus_violation(net, v)
        assert consensus_violation(net, -3.0 * v) == pytest.approx(3.0 * base,
                                                                   rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=8, max_size=8))
    def test_squared_norm_equals_quadratic_form(self, vals):
        net = build_topology("ring", 4)
        V = np.array(vals).reshape(4, 2)
        lhs = consensus_violation(net, V.ravel()) ** 2
        rhs = float(np.sum(V * (net.W_tilde @ V)))
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


class TestTopologyBuilding:
    def test_single_node_is_degenerate(self):
        net = NetworkModel.single_node()
        assert net.m == 1
        assert net.lambda_max == 0.0
        assert net.lambda_min_plus is None
        assert net.chi is None
        assert net.edges == []

    def test_m_below_two_rejected(self):
        with pytest.raises(ParameterError):
            build_topology("ring", 1)

    def test_too_many_nodes_rejected_before_any_matrix_is_built(self):
        # a dense 4096 x 4096 float matrix alone is 134 MB
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="m <= 512"):
                build_topology("ring", 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert build_topology("ring", MAX_NODES).m == MAX_NODES

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            build_topology("torus", 4)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_erdos_renyi_is_connected_and_reproducible(self, seed):
        net = build_topology("erdos_renyi", 8, p=0.4, seed=seed)
        eigs = sorted_eigs(net)
        # connected graph: single zero eigenvalue, positive Fiedler value
        assert eigs[1] > 1e-9
        again = build_topology("erdos_renyi", 8, p=0.4, seed=seed)
        assert np.array_equal(net.W_tilde, again.W_tilde)

    @pytest.mark.parametrize("m,p", [(3, 0.5), (4, 1.0), (8, 0.2), (40, 0.05), (40, 0.5)])
    def test_erdos_renyi_edges_match_a_draw_per_pair(self, m, p):
        # one rng.random() per pair i < j, in row-major order, per attempt
        for seed in range(3):
            rng = np.random.default_rng(seed)
            while True:
                edges = [(i, j) for i in range(m) for j in range(i + 1, m)
                         if rng.random() < p]
                if np.linalg.eigvalsh(laplacian(m, edges))[1] > 1e-9:
                    break
            assert build_topology("erdos_renyi", m, p=p, seed=seed).edges == edges

    def test_erdos_renyi_needs_probability(self):
        with pytest.raises(ParameterError):
            build_topology("erdos_renyi", 5)
        with pytest.raises(ParameterError):
            build_topology("erdos_renyi", 5, p=1.5)

    def test_disconnected_matrix_rejected(self):
        two_islands = np.array([
            [1.0, -1.0, 0.0, 0.0],
            [-1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, -1.0],
            [0.0, 0.0, -1.0, 1.0],
        ])
        with pytest.raises(DegenerateNetworkError):
            NetworkModel.from_matrix(two_islands)

    def test_from_matrix_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            NetworkModel.from_matrix(np.array([[1.0, 0.5], [-0.5, 1.0]]))
        shifted = np.array([[2.0, -1.0], [-1.0, 2.0]])  # kernel misses ones
        with pytest.raises(DomainError):
            NetworkModel.from_matrix(shifted)
        with pytest.raises(DomainError):
            NetworkModel.from_matrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        with pytest.raises(DimensionError):
            NetworkModel.from_matrix(np.array(1.0))
        with pytest.raises(DimensionError):
            NetworkModel.from_matrix(np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            NetworkModel.from_matrix(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_matrix_rejects_non_finite_entries(self, bad):
        ring = build_topology("ring", 4).W_tilde.copy()
        for i, j in ((0, 0), (0, 2), (1, 0)):
            W = ring.copy()
            W[i, j] = bad
            with pytest.raises(DomainError, match="non-finite"):
                NetworkModel.from_matrix(W)

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_edges_are_the_upper_triangle_in_row_major_order(self, kind):
        for m in (2, 3, 4, 7):
            net = topology(kind, m)
            assert net.edges == list(zip(*np.nonzero(np.triu(net.W_tilde, 1))))

    def test_complete_graph_edge_count(self):
        net = build_topology("complete", 6)
        assert len(net.edges) == 15
        assert net.W_tilde[0, 0] == pytest.approx(5.0)


class TestNetworkFiles:
    def test_matrix_export_readback(self, tmp_path, capsys):
        # the spectrum command writes W_tilde and W as CSV; both read back
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(RunConfig(m=4, network_kind="ring").to_yaml())
        out = tmp_path / "spec"
        assert cli.main(["spectrum", "--config", str(cfg),
                         "--out", str(out)]) == 0
        capsys.readouterr()
        net = build_topology("ring", 4)
        assert np.allclose(np.loadtxt(out / "laplacian.csv", delimiter=","),
                           net.W_tilde)
        assert np.allclose(np.loadtxt(out / "sqrt.csv", delimiter=","), net.W)


# sha256, per topology kind, of W_tilde, W, (lambda_max, lambda_min_plus,
# chi) and block_product on an (m, 3) standard-normal V drawn with
# default_rng(m), for each m in PINNED_NETWORK_SIZES in turn (erdos_renyi
# with p = 0.4 and seed 3). block_product sums each row in edge order, so
# these hashes see the edge order as well as the matrices and spectra.
PINNED_NETWORK_SIZES = (2, 3, 4, 8, 40, 256)
PINNED_NETWORKS = {
    "complete": "a207f580d2f89b89f8675ec36976cc52e81f2dd49adf428925ee6bedefbb96bc",
    "erdos_renyi": "06e0bcc2d1fc728ac0907c9eb9eff0de48568c2192b12e06af49f212df2a1282",
    "path": "90f1ff3894e1138c11299dcaef92e5411ff1e142babe0ff7ac3e6594fb6e7814",
    "ring": "03ab66d90699439fc4da4a220429bc22be88e4ac5cf8ddbf0e4721b4277c4461",
    "star": "cffcb93aacca6a498d4919d10c03598a6d102b7bc7d2824fb38eb385613cd804",
}


@pytest.mark.parametrize("kind", sorted(PINNED_NETWORKS))
def test_networks_match_pinned_bytes(kind):
    digest = hashlib.sha256()
    for m in PINNED_NETWORK_SIZES:
        net = topology(kind, m)
        V = np.random.default_rng(m).standard_normal((m, 3))
        consts = np.array([net.lambda_max, net.lambda_min_plus, net.chi])
        for a in (net.W_tilde, net.W, consts, net.block_product(V)):
            digest.update(a.tobytes())
    assert digest.hexdigest() == PINNED_NETWORKS[kind]

"""Tests for network topologies, spectra and gossip products."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import saddleslide.cli as cli
from saddleslide import harness, network
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
        # a fresh network: the shared one keeps the widths other tests used
        net = NetworkModel(build_topology("erdos_renyi", 8, p=0.5, seed=4).W_tilde)
        for width in [3, 1, 6, 3, 2, 1, 6]:
            V = rng.normal(size=(8, width))
            assert_same_bits(net.block_product(V), two_pass_block_product(net, V))
        assert sorted(net._flat_exchanges) == [1, 2, 3, 6]

    @pytest.mark.parametrize("shape", [(4,), (3, 2), (5, 2), (4, 2, 2)])
    def test_block_product_rejects_other_shapes(self, shape):
        net = build_topology("ring", 4)
        with pytest.raises(DimensionError):
            net.block_product(np.ones(shape))

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

    def test_single_kind_is_the_single_node_network(self):
        net, single = build_topology("single", 1), NetworkModel.single_node()
        for f in dataclasses.fields(NetworkModel):
            if f.compare:
                a, b = getattr(net, f.name), getattr(single, f.name)
                assert type(a) is type(b), f.name
                assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name

    @pytest.mark.parametrize("kind,m", [("single", 2), ("single", 0), ("ring", 1),
                                        ("complete", 1), ("ring", True)])
    def test_single_kind_needs_one_node_and_every_other_kind_two(self, kind, m):
        with pytest.raises(ParameterError):
            build_topology(kind, m)

    def test_only_W_tilde_is_an_init_field(self):
        assert [f.name for f in dataclasses.fields(NetworkModel) if f.init] == ["W_tilde"]

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_eigenvalues_are_the_ascending_spectrum_bitwise(self, kind):
        for m in PINNED_NETWORK_SIZES:
            net = topology(kind, m)
            assert_same_bits(net.eigenvalues, np.linalg.eigvalsh(net.W_tilde))

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
            NetworkModel(two_islands)

    def test_constructor_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            NetworkModel(np.array([[1.0, 0.5], [-0.5, 1.0]]))
        shifted = np.array([[2.0, -1.0], [-1.0, 2.0]])  # kernel misses ones
        with pytest.raises(DomainError):
            NetworkModel(shifted)
        with pytest.raises(DomainError):
            NetworkModel(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        with pytest.raises(DimensionError):
            NetworkModel(np.array(1.0))
        with pytest.raises(DimensionError):
            NetworkModel(np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            NetworkModel(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructor_rejects_non_finite_entries(self, bad):
        ring = build_topology("ring", 4).W_tilde.copy()
        for i, j in ((0, 0), (0, 2), (1, 0)):
            W = ring.copy()
            W[i, j] = bad
            with pytest.raises(DomainError, match="non-finite"):
                NetworkModel(W)

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_edges_are_the_upper_triangle_in_row_major_order(self, kind):
        for m in (2, 3, 4, 7):
            net = topology(kind, m)
            assert net.edges == list(zip(*np.nonzero(np.triu(net.W_tilde, 1))))

    def test_complete_graph_edge_count(self):
        net = build_topology("complete", 6)
        assert len(net.edges) == 15
        assert net.W_tilde[0, 0] == pytest.approx(5.0)


ARRAY_FIELDS = ("W_tilde", "W", "eigenvalues", "_edge_i", "_edge_j", "_edge_w", "_degree")


class TestSharedNetworks:
    @pytest.mark.parametrize("kind,m", [("ring", 6), ("star", 5), ("single", 1)])
    def test_equal_configs_share_one_network(self, kind, m):
        net = build_topology(kind, m)
        assert build_topology(kind, np.int64(m)) is net
        # the deterministic kinds ignore p and seed
        assert build_topology(kind, m, p=0.3, seed=9) is net
        assert build_topology(kind, m) == build_topology(kind, m)

    def test_erdos_renyi_shares_per_p_and_seed(self):
        net = build_topology("erdos_renyi", 9, p=0.5, seed=2)
        assert build_topology("erdos_renyi", np.int64(9), p=np.float64(0.5),
                              seed=np.int64(2)) is net
        assert build_topology("erdos_renyi", 9, p=0.5, seed=3) is not net
        assert build_topology("erdos_renyi", 9, p=0.6, seed=2) is not net

    def test_erdos_renyi_without_seed_is_never_shared(self):
        nets = [build_topology("erdos_renyi", 9, p=0.5) for _ in range(3)]
        assert len({id(net) for net in nets}) == 3

    def test_equality_is_identity(self):
        W = build_topology("ring", 5).W_tilde
        a, b = NetworkModel(W), NetworkModel(W)
        assert (a == b) is False and (a == a) is True
        assert len({a, b}) == 2

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_shared_network_is_bitwise_a_fresh_one(self, kind):
        net = topology(kind, 8)
        net.block_product(np.ones((8, 2)))
        assert topology(kind, 8) is net
        fresh = NetworkModel(net.W_tilde)
        for f in dataclasses.fields(NetworkModel):
            if not f.compare:
                continue
            a, b = getattr(net, f.name), getattr(fresh, f.name)
            assert type(a) is type(b), f.name
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.shape == b.shape, f.name
                assert a.tobytes() == b.tobytes(), f.name
            else:
                assert a == b, f.name

    @pytest.mark.parametrize("kind,m", [("ring", 4), ("erdos_renyi", 8), ("single", 1)])
    def test_every_array_is_read_only(self, kind, m):
        net = topology(kind, m)
        net.block_product(np.ones((m, 3)))
        arrays = [getattr(net, name) for name in ARRAY_FIELDS]
        arrays += list(net._flat_exchanges[3])
        for a in arrays:
            assert not a.flags.writeable
            if a.size:  # the single node has no edges
                with pytest.raises(ValueError, match="read-only"):
                    a.reshape(-1)[0] = 7.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.chi = 1.0

    def test_constructor_copies_its_input(self):
        W = build_topology("ring", 6).W_tilde.copy()
        net = NetworkModel(W)
        V = np.random.default_rng(6).standard_normal((6, 2))
        before = net.block_product(V)
        W[0, 0] = 7.0
        W[0, 1] = -3.0
        assert net.W_tilde[0, 0] == 2.0 and net.W_tilde[0, 1] == -1.0
        assert_same_bits(net.block_product(V), before)

    @pytest.mark.parametrize("bad", [dict(p=True), dict(p=np.True_), dict(p="0.5"),
                                     dict(p=[0.5]), dict(p=0.5j), dict(seed=-1),
                                     dict(seed=True), dict(seed=np.False_),
                                     dict(seed=1.0), dict(seed="3"), dict(seed=[1])])
    def test_p_and_seed_are_type_checked_before_anything_is_built(self, bad,
                                                                  monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a network was built")

        monkeypatch.setattr(network, "_topology_edges", unreachable)
        monkeypatch.setattr(network, "NetworkModel", unreachable)
        args = dict(p=0.5, seed=1) | bad
        for kind in ("erdos_renyi", "ring"):
            with pytest.raises(ParameterError):
                build_topology(kind, 6, **args)


# sha256 of the spectrum command's stdout (its output directory written as
# OUT), laplacian.csv and sqrt.csv, per (kind, m)
PINNED_SPECTRA = {
    ("complete", 4): "2d6a85751aaca9db1d99b85943984ede9ffcdd97634d88ee8a7406061f230639",
    ("path", 3): "1be114ea130ba68aedce6650b18b6a0170f5d9b12e323f976909655f90c9a58b",
    ("ring", 5): "6baa84a514e2f37ff584646781e5765a246f84f3018540d44cc10347edba5c77",
    ("single", 1): "f707bf01a7f95f92ef180c902b81bcb25a1c8ccd374c15391f8834296ad3def0",
    ("star", 7): "375fe144c6ae9e8c5fe3d37f69b353a40c6c3090f031c5f6ed45a7ca1072f81c",
}


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

    @pytest.mark.parametrize("kind,m", sorted(PINNED_SPECTRA))
    def test_spectrum_builds_only_the_network(self, tmp_path, capsys, monkeypatch,
                                              kind, m):
        def unreachable(*args, **kwargs):
            raise AssertionError("spectrum built more than the network")

        monkeypatch.setattr(harness, "_build_instance", unreachable)
        monkeypatch.setattr(harness, "operator_bound_L0", unreachable)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(RunConfig(m=m, network_kind=kind).to_yaml())
        out = tmp_path / "spec"
        assert cli.main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.replace(str(out), "OUT").encode())
        for name in ("laplacian.csv", "sqrt.csv"):
            digest.update((out / name).read_bytes())
        assert digest.hexdigest() == PINNED_SPECTRA[kind, m]


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

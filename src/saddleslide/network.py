"""Gossip topologies and Laplacian spectra.

A network is its gossip matrix W_tilde (a graph Laplacian for the shipped
topologies: symmetric PSD, kernel containing the all-ones consensus
direction), which fixes its PSD square root W, its spectrum and the
constants lambda_max, lambda_min_plus and chi = lambda_max / lambda_min_plus.

The algorithm's data path multiplies W_tilde blockwise via exchanges over
the edges, which are W_tilde's nonzero off-diagonal pattern (each node
combines its neighbors' blocks with Laplacian weights); the square root W is
used only for diagnostics such as the consensus violation norm, since it
would not be locally computable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import (DegenerateNetworkError, DimensionError, DomainError, ParameterError,
                     is_int, is_real)

TOPOLOGY_KINDS = ("ring", "path", "star", "complete", "erdos_renyi")

# Eigenvalues below 1e-9 * lambda_max count as zero when locating lambda_min_plus.
TAU_EIG_REL = 1e-9

# Most nodes a network may have: it stores W_tilde and W as dense m x m arrays.
MAX_NODES = 512


def _psd_sqrt(sym: np.ndarray) -> np.ndarray:
    """U diag(sqrt(mu)) U^T, symmetrized, for eigh(sym) = (mu, U), with
    eigenvalue noise below zero clamped. U and the first product are freed
    on return, before the constructor stores W: kept as its locals, they
    made ring-256 solves about 4 % slower (2-vCPU Xeon)."""
    mu, U = np.linalg.eigh(sym)
    root = (U * np.sqrt(np.clip(mu, 0.0, None))) @ U.T
    return 0.5 * (root + root.T)


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """Network of the gossip matrix ``W_tilde``, its only input, from which
    construction derives every other field (``eigenvalues`` is the
    ascending spectrum). ``lambda_min_plus`` and ``chi`` are None exactly
    for the single-node network W_tilde = 0, which has no positive eigenvalue.

    A network is immutable, so runs may share one: construction copies
    ``W_tilde``, every array it holds (the gossip exchange arrays included)
    is read-only, and its fields cannot be rebound. Equality is identity.
    """

    W_tilde: np.ndarray
    m: int = field(init=False)
    W: np.ndarray = field(init=False)
    eigenvalues: np.ndarray = field(init=False)
    lambda_max: float = field(init=False)
    lambda_min_plus: Optional[float] = field(init=False)
    chi: Optional[float] = field(init=False)
    # the edges (see ``edges``), their weights -W_tilde[i, j] and the degrees
    # diag(W_tilde)
    _edge_i: np.ndarray = field(init=False, repr=False)
    _edge_j: np.ndarray = field(init=False, repr=False)
    _edge_w: np.ndarray = field(init=False, repr=False)
    _degree: np.ndarray = field(init=False, repr=False)
    # block width -> (flat destination indices, flat source indices, weights)
    # of the per-edge exchanges, built by the first block_product of that width
    _flat_exchanges: dict = field(init=False, repr=False, compare=False,
                                  default_factory=dict)

    def __post_init__(self):
        Wt = np.array(self.W_tilde, dtype=float)  # a copy: the caller keeps theirs
        if Wt.ndim != 2 or Wt.shape[0] != Wt.shape[1] or Wt.shape[0] == 0:
            raise DimensionError("gossip matrix must be square with m >= 1 rows")
        if not np.isfinite(Wt).all():
            raise DomainError("gossip matrix contains non-finite entries")
        m = Wt.shape[0]
        if m > MAX_NODES:
            raise ParameterError(f"dense network storage is limited to m <= {MAX_NODES}")
        scale = max(1.0, float(np.max(np.abs(Wt))))
        if np.max(np.abs(Wt - Wt.T)) > 1e-9 * scale:
            raise DomainError("gossip matrix must be symmetric")
        if np.max(np.abs(Wt @ np.ones(m))) > 1e-8 * scale:
            raise DomainError("gossip matrix kernel must contain the consensus direction")
        sym = 0.5 * (Wt + Wt.T)
        lam = np.linalg.eigvalsh(sym)
        if lam.min() < -1e-9 * scale:
            raise DomainError("gossip matrix must be positive semidefinite")
        lam_max = float(lam.max())
        positive = lam[lam > TAU_EIG_REL * lam_max]
        n_zero = int(lam.size - positive.size)
        if n_zero != 1:
            raise DegenerateNetworkError(
                "gossip matrix kernel must be exactly the consensus line, found "
                f"{n_zero} zero eigenvalues (disconnected topology?)")
        lam_min_plus = float(positive.min()) if positive.size else None
        # edges are the nonzero off-diagonal pairs i < j in row-major order,
        # the order in which block_product sums each row
        edge_i, edge_j = np.nonzero(np.abs(np.triu(Wt, 1)) > 1e-12 * scale)
        derived = dict(
            W_tilde=Wt, m=m, eigenvalues=lam, lambda_max=lam_max,
            lambda_min_plus=lam_min_plus,
            chi=lam_max / lam_min_plus if lam_min_plus else None,
            W=_psd_sqrt(sym),
            _edge_i=edge_i, _edge_j=edge_j, _edge_w=-Wt[edge_i, edge_j],
            _degree=np.diag(Wt).copy())
        for name, value in derived.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def edges(self) -> list:
        """The (i, j) pairs i < j of W_tilde's nonzero pattern, in row-major order."""
        return list(zip(self._edge_i.tolist(), self._edge_j.tolist()))

    def block_product(self, V: np.ndarray) -> np.ndarray:
        """W_tilde applied to an (m, block_dim) matrix via per-edge exchanges.

        Row i starts as ``degree[i] * V[i]``. Then every edge (i, j), in
        ``edges`` order, subtracts ``w_ij * V[j]`` from row i, and after that
        pass every edge subtracts ``w_ij * V[i]`` from row j. All of it runs as
        one flat ``np.subtract.at`` on ``out.reshape(-1)``, which applies the
        subtractions to each entry in that order. ``edges`` is row-major, so
        row i subtracts its neighbours j > i and then its neighbours j < i,
        each in ascending order, and the result is bitwise fixed by W_tilde.
        The flat index and weight arrays are built on the first call for a
        block width and cached on the model.
        Raises DimensionError unless V is 2-D with m rows.
        """
        V = np.asarray(V)
        if V.ndim != 2 or V.shape[0] != self.m:
            raise DimensionError(
                f"block_product needs an (m, block_dim) matrix with m = {self.m}, "
                f"got shape {V.shape}")
        out = self._degree[:, None] * V
        dst, src, w = self._flat_exchange(V.shape[1])
        np.subtract.at(out.reshape(-1), dst, w * V.reshape(-1).take(src))
        return out

    def _flat_exchange(self, bd: int):
        cached = self._flat_exchanges.get(bd)
        if cached is None:
            cols = np.arange(bd, dtype=np.intp)
            dst = np.concatenate((self._edge_i, self._edge_j))
            src = np.concatenate((self._edge_j, self._edge_i))
            cached = ((dst[:, None] * bd + cols).ravel(),
                      (src[:, None] * bd + cols).ravel(),
                      np.repeat(np.concatenate((self._edge_w, self._edge_w)), bd))
            for a in cached:
                a.flags.writeable = False
            self._flat_exchanges[bd] = cached
        return cached


def _topology_edges(kind: str, m: int, p: Optional[float],
                    seed: Optional[int]) -> list:
    if kind == "single":
        return []
    if kind == "complete":
        return [(i, j) for i in range(m) for j in range(i + 1, m)]
    if kind == "ring":
        return [(i, (i + 1) % m) for i in range(m)]
    if kind == "path":
        return [(i, i + 1) for i in range(m - 1)]
    if kind == "star":
        return [(0, i) for i in range(1, m)]
    # erdos_renyi, with p in (0, 1] checked by build_topology
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(m, 1)  # the pairs i < j in row-major order
    for _ in range(10000):
        keep = rng.random(iu.size) < p  # one draw per pair, in pair order
        edges = list(zip(iu[keep].tolist(), ju[keep].tolist()))
        if _connected(m, edges):
            return edges
    raise ParameterError(
        f"erdos_renyi(p={p}) failed to produce a connected graph in 10000 tries")


def _connected(m: int, edges: list) -> bool:
    adj = [[] for _ in range(m)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == m


def build_topology(kind: str, m: int, p: Optional[float] = None,
                   seed: Optional[int] = None) -> NetworkModel:
    """Unweighted graph Laplacian network for a named topology.

    ``erdos_renyi`` samples G(m, p) with the given seed and retries until the
    graph is connected; the deterministic kinds are connected by construction
    and ignore p and seed. ``single`` needs m = 1, the other kinds m in
    [2, MAX_NODES]. Every argument is checked before any edge or matrix is
    built.

    A network is a constant of its configuration, so the few most recently
    built ones are kept: equal arguments return the same read-only
    ``NetworkModel``. ``erdos_renyi`` with ``seed=None`` draws from OS
    entropy, so it builds a new network on every call.
    """
    if not (isinstance(kind, str) and kind in ("single",) + TOPOLOGY_KINDS):
        raise ParameterError(f"unknown topology kind {kind!r}")
    if not (is_int(m) and (m == 1 if kind == "single" else 2 <= m <= MAX_NODES)):
        raise ParameterError(f"build_topology needs m = 1 for kind 'single' and "
                             f"2 <= m <= {MAX_NODES} otherwise, got {kind!r} with m = {m!r}")
    if not (p is None or is_real(p)):
        raise ParameterError(f"edge probability p must be a finite real or None, got {p!r}")
    if not (seed is None or (is_int(seed) and seed >= 0)):
        raise ParameterError(f"seed must be None or an integer >= 0, got {seed!r}")
    if kind != "erdos_renyi":
        return _cached_topology(kind, int(m), None, None)
    if p is None or not (0.0 < p <= 1.0):
        raise ParameterError(f"erdos_renyi needs edge probability p in (0, 1], got {p!r}")
    if seed is None:
        return _laplacian_network(kind, int(m), float(p), None)
    return _cached_topology(kind, int(m), float(p), int(seed))


def _laplacian_network(kind: str, m: int, p: Optional[float],
                       seed: Optional[int]) -> NetworkModel:
    edges = np.array(_topology_edges(kind, m, p, seed), dtype=np.intp)
    i, j = edges.reshape(-1, 2).T
    A = np.zeros((m, m))
    A[i, j] = A[j, i] = 1.0
    return NetworkModel(np.diag(A.sum(axis=1)) - A)


# the networks of the most recently used configurations
_cached_topology = lru_cache(maxsize=4)(_laplacian_network)


def consensus_violation(net: NetworkModel, stacked):
    """||W V||_2, where V is the (m, w) matrix of node blocks of ``stacked``
    and W the square-root matrix.

    Acts row-wise along the last axis: ``stacked`` is one stacked vector of
    length m w, which gives a float, or a batch of shape (..., m w), which
    gives an array of shape (...) with one norm per row. Each row is bitwise
    equal to the single-vector call: W V is one matrix product per row (on
    an (n, m, w) stack, ``np.matmul`` runs one gemm per slice; a single
    gemm of W against the rows side by side sums in another order), and the
    norm is the square root of the row's ``ddot``, as in
    ``np.linalg.norm``. W V takes as many floats as ``stacked``, so the
    caller bounds the memory by the size of the batch it passes. W is zero
    on a single-node network, where the result is 0.0.
    """
    v = np.asarray(stacked, dtype=float)
    if v.ndim == 0 or v.shape[-1] == 0 or v.shape[-1] % net.m != 0:
        raise DimensionError(f"stacked points of shape {v.shape} need a nonempty last "
                             f"axis that is a multiple of m = {net.m}")
    lead, w = v.shape[:-1], v.shape[-1] // net.m
    R = np.matmul(net.W, v.reshape(-1, net.m, w)).reshape(-1, net.m * w)
    out = np.sqrt(np.vecdot(R, R))
    return float(out[0]) if not lead else out.reshape(lead)

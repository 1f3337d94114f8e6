"""Concrete saddle instances and their ground-truth oracles.

Two families are shipped. Matrix games put f_i(x, y) = y^T A_i x on a pair of
probability simplices; the operator H is linear and smooth, the exact
primal-dual gap has a closed form by vertex enumeration, and subgradient /
operator bounds are analytic. The l1 family puts f_i(x, y) =
||diag(b_i) x - c_i||_1 + y^T C_i x - ||y||_1 on boxes; H is genuinely
nonsmooth with sign-vector subgradients (sign(0) := 0, the minimal-norm
choice) and bounds computable from the data norms and box radius.

Also here: the bound on ||H|| over the feasible set and numerical
certification of the inexact-oracle inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (CertificationError, DimensionError, DomainError, ParameterError, is_int,
                     is_real)
from .geometry import Box, ProductSet, Simplex
from .penalty import StackedSPP

try:
    # np.einsum without optimize forwards its arguments to this C function
    # unchanged; calling it directly skips about 1 us of Python dispatch per
    # call, which matters for H on small problems called tens of thousands
    # of times per solve. Older numpy keeps the public function.
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:
    _einsum = np.einsum

MATCHING_PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])


# -- matrix games --------------------------------------------------------------

def make_matrix_game(A_list) -> StackedSPP:
    """Stacked zero-sum game: node i plays f_i(x_i, y_i) = y_i^T A_i x_i,
    one node per payoff matrix of ``A_list``.

    The average matrix is kept in ``meta["A_bar"]`` for the exact gap oracle.
    Subgradient and operator bounds are exact: over the simplices,
    sup ||A^T y|| is the largest row norm and sup ||A x|| the largest column
    norm, both attained at vertices.

    H is linear and stored row-sparse, k = max(d_x, d_y) entries per row
    (ELL form): ``vals`` and ``cols`` both have shape (dim, k), and row r of
    H(z) is sum_j vals[r, j] * z[cols[r, j]]. The x rows of node i hold the
    columns of A_i against y_i, the y rows the negated rows of A_i against
    x_i, each in ascending column order, short rows padded with column 0 and
    value 0.0. Node i's operator depends only on node i's block, so an H call
    costs O(dim k), never O(dim^2). ``vals`` is also kept as ``linear_H``.
    """
    m = len(A_list)
    if m < 1:
        raise DimensionError("need at least one payoff matrix")
    mats = [np.asarray(A, dtype=float) for A in A_list]
    for A in mats:
        if A.ndim != 2 or A.shape != mats[0].shape:
            raise DimensionError("payoff matrices must be 2-D and share one shape")
        if not np.all(np.isfinite(A)):
            raise DomainError("payoff matrices must be finite")
    A3 = np.stack(mats)
    d_y, d_x = A3.shape[1:]
    maxrow_sq = (A3 ** 2).sum(axis=2).max(axis=1)   # sup ||A_i^T y||^2 over simplex
    maxcol_sq = (A3 ** 2).sum(axis=1).max(axis=1)   # sup ||A_i x||^2 over simplex

    cut = m * d_x
    dim = cut + m * d_y
    nodes = np.arange(m)[:, None, None]
    vals = np.zeros((dim, max(d_x, d_y)))
    cols = np.zeros(vals.shape, dtype=np.intp)
    # x row (i, a): sum_j A_i[j, a] y_i[j]; y row (i, b): -sum_a A_i[b, a] x_i[a]
    vals[:cut, :d_y] = A3.transpose(0, 2, 1).reshape(cut, d_y)
    cols[:cut, :d_y] = np.broadcast_to(cut + d_y * nodes + np.arange(d_y),
                                       (m, d_x, d_y)).reshape(cut, d_y)
    vals[cut:, :d_x] = -A3.reshape(m * d_y, d_x)
    cols[cut:, :d_x] = np.broadcast_to(d_x * nodes + np.arange(d_x),
                                       (m, d_y, d_x)).reshape(m * d_y, d_x)

    def batched_H(z: np.ndarray) -> np.ndarray:
        return _einsum("rk,...rk->...r", vals, z.take(cols, axis=-1))

    return StackedSPP(
        m=m,
        set_x=Simplex(d_x),
        set_y=Simplex(d_y),
        batched_H=batched_H,
        linear_H=vals,
        subgrad_bound_x=math.sqrt(float(maxrow_sq.sum())),
        subgrad_bound_y=math.sqrt(float(maxcol_sq.sum())),
        operator_bound=math.sqrt(float(maxrow_sq.sum() + maxcol_sq.sum())),
        meta={"family": "matrix_game", "A": A3, "A_bar": A3.mean(axis=0)},
    )


def _check_sizes(m, d_x, d_y) -> None:
    for name, v in (("m", m), ("d_x", d_x), ("d_y", d_y)):
        if not (is_int(v) and v >= 1):
            raise ParameterError(f"{name} must be an integer >= 1, got {v!r}")


def random_matrix_game(m: int, d_x: int, d_y: int, seed) -> StackedSPP:
    """m payoff matrices with entries uniform on [-1, 1]; m, d_x and d_y
    must be integers >= 1 (ParameterError)."""
    _check_sizes(m, d_x, d_y)
    rng = np.random.default_rng(seed)
    return make_matrix_game(rng.uniform(-1.0, 1.0, (m, d_y, d_x)))


def exact_gap_matrix_game(A_bar, x, y):
    """Exact primal-dual gap max_j (A x)_j - min_i (A^T y)_i.

    The inner sup/inf over the simplices are attained at vertices, so this is
    the true value of sup over feasible (x', y') of y'^T A x - y^T A x'.
    Nonnegative for feasible inputs by weak duality.

    Acts row-wise along the last axis: one pair of points (x, y) gives a
    float, and batches x of shape (..., d_x) and y of shape (..., d_y) give
    an array of shape (...) with one gap per row pair, each bitwise equal to
    the single-point call (``np.matmul`` runs one gemv per row).
    """
    A = np.asarray(A_bar, dtype=float)
    vx = np.asarray(x, dtype=float)
    vy = np.asarray(y, dtype=float)
    if (A.ndim != 2 or vx.shape[-1:] != (A.shape[1],) or vy.shape[-1:] != (A.shape[0],)
            or vx.shape[:-1] != vy.shape[:-1]):
        raise DimensionError("gap oracle needs x, y matching the matrix shape")
    if not (np.isfinite(vx).all() and np.isfinite(vy).all()):
        raise DomainError("gap oracle needs finite x and y")
    for v in (vx, vy):
        if np.any(v < -1e-9) or np.any(np.abs(v.sum(axis=-1) - 1.0) > 1e-6):
            raise DomainError("gap oracle needs simplex-feasible x and y")
    gap = np.max(_matvec(A, vx), axis=-1) - np.min(_matvec(A.T, vy), axis=-1)
    return float(gap) if gap.ndim == 0 else gap


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    # A v for every row v of a (..., n) batch, one gemv per row, as A @ v
    return np.matmul(A, v[..., None])[..., 0]


# -- l1-regularized bilinear saddles -------------------------------------------

def make_l1_saddle(b_list, c_list, C_list, box_radius: float) -> StackedSPP:
    """Stacked nonsmooth saddle on boxes [-box_radius, box_radius] per block.

    ``b_list`` holds the diagonals b_i of the sensing matrices, each of
    length d_x, so no d_x x d_x matrix is stored. Subgradients use
    sign(0) = 0. The per-node bounds combine operator norms with the worst
    sign vector, of p = d_x entries, and box corner:
    ||b * s + C^T y|| <= sigma_max(diag(b)) sqrt(p) + sigma_max(C) r sqrt(d_y)
    and ||sign(y) - C x|| <= sqrt(d_y) + sigma_max(C) r sqrt(d_x).
    """
    m = len(b_list)
    if m < 1 or len(c_list) != m or len(C_list) != m:
        raise DimensionError("b_list, c_list, C_list must have equal length >= 1")
    if not (is_real(box_radius) and box_radius > 0):
        raise ParameterError(f"box_radius must be a finite real > 0, got {box_radius!r}")
    stacks = []
    for name, given, ndim in (("b", b_list, 1), ("c", c_list, 1), ("C", C_list, 2)):
        arrays = [np.asarray(x, dtype=float) for x in given]
        if any(x.ndim != ndim or x.shape != arrays[0].shape for x in arrays):
            raise DimensionError(f"every {name}_i must be {ndim}-D, all of one shape")
        stacks.append(np.stack(arrays))
    b2, c2, C3 = stacks
    d_x, d_y = b2.shape[1], C3.shape[1]
    if c2.shape != (m, d_x) or C3.shape != (m, d_y, d_x):
        raise DimensionError("c_i must have the length of b_i, and C_i shape (d_y, d_x)")
    if not all(np.all(np.isfinite(a)) for a in stacks):
        raise DomainError("l1 instance data must be finite")
    r = float(box_radius)
    sig_B = np.linalg.norm(b2[:, :, None] * np.eye(d_x), 2, axis=(1, 2))
    sig_C = np.linalg.norm(C3, 2, axis=(1, 2))
    bx = sig_B * math.sqrt(d_x) + sig_C * r * math.sqrt(d_y)
    by = math.sqrt(d_y) + sig_C * r * math.sqrt(d_x)
    cut = m * d_x

    # Leading axes of z are independent points. The einsums keep the
    # single-point subscripts behind a "...", which sums each point in the
    # same order as a single-point call; optimize=True or matmul may not.
    def batched_H(z: np.ndarray) -> np.ndarray:
        lead = z.shape[:-1]
        X = z[..., :cut].reshape(lead + (m, d_x))
        Y = z[..., cut:].reshape(lead + (m, d_y))
        out = np.empty(z.shape)
        OX = out[..., :cut].reshape(X.shape)
        OY = out[..., cut:].reshape(Y.shape)
        # Hx = b * sign(b * x - c) + C^T y and Hy = sign(y) - C x, written
        # through views of one output array
        np.multiply(b2, X, out=OX)
        np.subtract(OX, c2, out=OX)
        np.sign(OX, out=OX)
        np.multiply(OX, b2, out=OX)
        OX += _einsum("nji,...nj->...ni", C3, Y)
        np.sign(Y, out=OY)
        OY -= _einsum("nji,...ni->...nj", C3, X)
        return out

    return StackedSPP(
        m=m,
        set_x=Box(-r * np.ones(d_x), r * np.ones(d_x)),
        set_y=Box(-r * np.ones(d_y), r * np.ones(d_y)),
        batched_H=batched_H,
        subgrad_bound_x=math.sqrt(float(np.sum(bx ** 2))),
        subgrad_bound_y=math.sqrt(float(np.sum(by ** 2))),
        operator_bound=math.sqrt(float(np.sum(bx ** 2 + by ** 2))),
        meta={"family": "l1_saddle", "b": b2, "c": c2, "C": C3, "box_radius": r},
    )


def random_l1_saddle(m: int, d_x: int, d_y: int, seed,
                     box_radius: float = 1.0) -> StackedSPP:
    """Random l1 instance: diagonals b_i uniform on [0.5, 1.5], c_i on
    [-1, 1] and C_i on [-0.5, 0.5], drawn in that order, node after node;
    m, d_x and d_y must be integers >= 1 (ParameterError)."""
    _check_sizes(m, d_x, d_y)
    rng = np.random.default_rng(seed)
    b = rng.uniform(0.5, 1.5, (m, d_x))
    c = rng.uniform(-1.0, 1.0, (m, d_x))
    C = rng.uniform(-0.5, 0.5, (m, d_y, d_x))
    return make_l1_saddle(b, c, C, box_radius)


def l1_saddle_gap(spp: StackedSPP, x, y):
    """Exact primal-dual gap of the node-averaged l1 objective at (x, y).

    The sensing matrices are diagonal, so both best responses are
    coordinate-separable: the y response is r * max(0, |(C_bar x)_j| - 1)
    per coordinate, and the x response minimizes a piecewise-linear function
    whose optimum sits at a box edge or a kink c_ij / b_ij, so scanning those
    candidates is exact.

    Acts row-wise along the last axis: one pair of points (x, y) gives a
    float, and batches x of shape (..., d_x) and y of shape (..., d_y) give
    an array of shape (...) with one gap per row pair, each bitwise equal to
    the single-point call.
    """
    if spp.meta.get("family") != "l1_saddle":
        raise ParameterError("l1_saddle_gap needs an l1 saddle instance")
    diag, c2, C3 = spp.meta["b"], spp.meta["c"], spp.meta["C"]
    r = spp.meta["box_radius"]
    m, d_x = diag.shape
    vx = np.asarray(x, dtype=float)
    vy = np.asarray(y, dtype=float)
    if (vx.shape[-1:] != (d_x,) or vy.shape[-1:] != (C3.shape[1],)
            or vx.shape[:-1] != vy.shape[:-1]):
        raise DimensionError("l1 gap oracle got points of the wrong dimension")
    if not (np.isfinite(vx).all() and np.isfinite(vy).all()):
        raise DomainError("l1 gap oracle needs finite x and y")
    lead = vx.shape[:-1]
    C_bar = C3.mean(axis=0)

    # sup over y' of f_bar(x, y'): separable, r * max(0, |(C_bar x)_j| - 1);
    # each row's residuals are summed as one flat (m d_x) vector
    resid = np.abs(diag * vx[..., None, :] - c2).reshape(lead + (m * d_x,))
    f_sup = (resid.sum(axis=-1) / m
             + r * np.maximum(0.0, np.abs(_matvec(C_bar, vx)) - 1.0).sum(axis=-1))

    # inf over x' of f_bar(x', y): per coordinate, scan kinks and box edges;
    # the candidates and their l1 terms do not depend on (x, y)
    g = _matvec(C_bar.T, vy)
    f_inf = -np.abs(vy).sum(axis=-1)
    for j in range(d_x):
        bj = diag[:, j]
        cands = [-r, r]
        nz = bj != 0.0
        cands.extend(np.clip(c2[nz, j] / bj[nz], -r, r).tolist())
        t = np.array(cands)
        base = np.abs(np.outer(bj, t) - c2[:, j][:, None]).sum(axis=0) / m
        f_inf = f_inf + (base + g[..., j, None] * t).min(axis=-1)
    gap = f_sup - f_inf
    return float(gap) if not lead else gap


# -- operator bound and oracle certification -----------------------------------

def operator_bound_L0(spp: StackedSPP, samples: int, seed) -> float:
    """Uniform bound on ||H|| over the stacked feasible set.

    Matrix games return the analytic supremum (exact, attained at vertices);
    other families return 1.1 (a safety factor) times the maximum of ||H||
    over ``samples`` feasible stacked points drawn with ``seed``.
    H is evaluated on all sampled points in one call (``spp.H`` acts row-wise
    along the last axis), and the norms are taken per point.
    """
    if not (is_int(samples) and samples >= 1):
        raise ParameterError(f"samples must be an integer >= 1, got {samples!r}")
    if spp.meta.get("family") == "matrix_game":
        return float(spp.operator_bound)
    rng = np.random.default_rng(seed)
    Hs = spp.H(spp.stacked_set().sample(rng, samples))
    # np.vecdot runs the ddot of np.linalg.norm on each row, so each norm is
    # bitwise the single-vector norm
    return 1.1 * float(np.sqrt(np.vecdot(Hs, Hs)).max())


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of a passed inexact-oracle certification."""

    M: float
    delta: float
    triples: int
    worst_slack: float
    mean_slack: float

    def __str__(self) -> str:
        return (f"certified ({self.triples} triples): M = {self.M}, "
                f"delta = {self.delta}, worst slack = {self.worst_slack:.3e}")


def certify_inexact_oracle(H: Callable[[np.ndarray], np.ndarray],
                           feasible_set: ProductSet, M: float, delta: float,
                           triples: int, seed) -> CertificateReport:
    """Sample feasible triples (z1, z2, z3) and check the inexact inequality

    <H(z1) - H(z2), z1 - z3> <= M/2 ||z1-z2||^2 + M/2 ||z1-z3||^2 + delta,

    with 1e-9 additive slack for float noise. ``H`` acts row-wise along the
    last axis: it is called once on all first points and once on all second
    points, each an array of shape (triples, dim), and must return an array
    of that shape whose row i is the operator at row i (``StackedSPP.H`` does).
    Returns the report with the worst (smallest) observed slack; a violated
    triple raises CertificationError carrying the witness on the exception.
    """
    if not (is_int(triples) and triples >= 1):
        raise ParameterError(f"triples must be an integer >= 1, got {triples!r}")
    for name, v in (("M", M), ("delta", delta)):
        if not (is_real(v) and v >= 0):
            raise ParameterError(f"certification needs a finite {name} >= 0, got {v!r}")
    rng = np.random.default_rng(seed)
    Z1 = feasible_set.sample(rng, triples)
    Z2 = feasible_set.sample(rng, triples)
    Z3 = feasible_set.sample(rng, triples)
    H1 = H(Z1)
    H2 = H(Z2)
    if np.shape(H1) != Z1.shape or np.shape(H2) != Z2.shape:
        raise ParameterError("H must act row-wise along the last axis and "
                             "return an array of its input's shape")
    d12, d13 = Z1 - Z2, Z1 - Z3
    lhs = np.einsum("ij,ij->i", H1 - H2, d13)
    rhs = (0.5 * M * np.einsum("ij,ij->i", d12, d12)
           + 0.5 * M * np.einsum("ij,ij->i", d13, d13) + delta)
    slack = rhs - lhs
    worst = int(np.argmin(slack))
    if slack[worst] < -1e-9:
        err = CertificationError(
            f"inexact-oracle condition violated: slack {slack[worst]:.3e} "
            f"at triple {worst} of {triples} (M = {M}, delta = {delta})")
        err.witness = (Z1[worst], Z2[worst], Z3[worst])
        raise err
    return CertificateReport(M=float(M), delta=float(delta), triples=triples,
                             worst_slack=float(slack[worst]),
                             mean_slack=float(slack.mean()))

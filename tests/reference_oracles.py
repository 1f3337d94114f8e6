"""Reference oracles that only the tests read.

The package sees a problem only through its stacked operator H. The tests
check H and the penalty reformulation against independent references kept
here: per-node oracles of the matrix-game and l1 families, a
consensus-constrained QP family with an accelerated projected-gradient
solver, and an SLSQP estimate of the sup-gap that the package's certified
bracket (``sup_gap_skew_linear``) is checked against.

The geometry references are a feasible set's blocks one at a time
(``blocks``) and its exact squared diameter (``diameter_sq``), the Bregman
divergence, and ``prox_two_anchor``, a checked entry to the solver's
unchecked prox kernels. The divergence convention is
``bregman_divergence(geom, a, b)`` = divergence of ``a`` relative to the
anchor ``b``; for entropy that is KL(a || b). The prox penalizes
``bregman_divergence(geom, z, anchor)``, the distance of its output ``z``
from each anchor.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import optimize

from saddleslide import (
    ENTROPY_CLIP,
    NEGATIVE_ENTROPY,
    SQUARED_EUCLIDEAN,
    ConfigurationError,
    DimensionError,
    DomainError,
    GeometrySpec,
    NetworkModel,
    ParameterError,
    ProductSet,
    VIProblem,
)
from saddleslide.geometry import (_anchor_term, _as_vector, _bind_prox, _outer_term,
                                  _prox_kernel)


# -- Bregman geometry --------------------------------------------------------------

def blocks(fset: ProductSet):
    """``(a, b, lower, upper)`` for every block of ``fset`` on ``[a, b)``, in
    order; ``lower`` and ``upper`` are the box bounds, None for a simplex."""
    for _, a, b, d, _, *bounds in fset._groups:
        if bounds:
            lower, upper = bounds
            for s in range(0, b - a, d):
                yield a + s, a + s + d, lower[s:s + d], upper[s:s + d]
        else:
            for s in range(a, b, d):
                yield s, s + d, None, None


def diameter_sq(fset: ProductSet) -> float:
    """Squared euclidean diameter, exact: the sum over blocks of 2 per simplex
    of dimension > 1 (two vertices) and ||upper - lower||^2 per box."""
    total = 0.0
    for a, b, lo, up in blocks(fset):
        total += (2.0 if b - a > 1 else 0.0) if lo is None else float(np.sum((up - lo) ** 2))
    return total


def _entropy_divergence(a: np.ndarray, b: np.ndarray) -> float:
    if np.any(b <= 0.0):
        raise DomainError("entropy divergence needs a strictly interior anchor")
    # a_i = 0 contributes exactly 0 because 0 * log(clip) = 0
    return float(np.dot(a, np.log(np.maximum(a, ENTROPY_CLIP)) - np.log(b)))


def bregman_divergence(geom: GeometrySpec, a, b) -> float:
    """Divergence of ``a`` relative to the anchor ``b`` under ``geom.dgf``.

    Squared euclidean gives ``0.5 * ||a - b||**2``; negative entropy on
    simplex blocks gives ``KL(a || b)``, which requires ``b`` strictly
    interior. Nonnegative, and zero exactly at ``a == b``.
    """
    va = _as_vector(a, geom.dim)
    vb = _as_vector(b, geom.dim)
    if not geom.feasible_set.contains(va):
        raise DomainError("first argument lies outside the feasible set")
    if not geom.feasible_set.contains(vb):
        raise DomainError("anchor lies outside the feasible set")
    if geom.dgf == SQUARED_EUCLIDEAN:
        d = va - vb
        return 0.5 * float(np.dot(d, d))
    return _entropy_divergence(va, vb)


def prox_two_anchor(geom: GeometrySpec, g, anchor_outer, beta: float,
                    anchor_inner, eta: float) -> np.ndarray:
    """Minimize ``<g, z> + beta*V(z, anchor_outer) + eta*V(z, anchor_inner)``
    through the solver's kernels, after checking the inputs.

    ``V(z, anchor)`` is ``bregman_divergence(geom, z, anchor)``. Closed forms:
    squared euclidean projects ``(beta*a_out + eta*a_in - g) / (beta + eta)``
    onto the set; negative entropy is a per-block softmax of
    ``(beta*log a_out + eta*log a_in - g) / (beta + eta)``, evaluated in log
    space with max subtraction and clipped at the entropy floor. The anchors
    must be feasible, and strictly positive for entropy; the weights need
    ``beta, eta >= 0`` and ``beta + eta > 0``.
    """
    if not (np.isfinite(beta) and np.isfinite(eta)) or beta < 0 or eta < 0 or beta + eta <= 0:
        raise ParameterError("prox weights need beta >= 0, eta >= 0, beta + eta > 0")
    vg = _as_vector(g, geom.dim)
    ao = _as_vector(anchor_outer, geom.dim)
    ai = _as_vector(anchor_inner, geom.dim)
    if not geom.feasible_set.contains(ao):
        raise DomainError("outer anchor lies outside the feasible set")
    if not geom.feasible_set.contains(ai):
        raise DomainError("inner anchor lies outside the feasible set")
    if geom.dgf == NEGATIVE_ENTROPY and (np.any(ao <= 0.0) or np.any(ai <= 0.0)):
        raise DomainError("entropy prox needs strictly positive anchors")
    anchor, arg, out = (np.empty(geom.dim) for _ in range(3))
    _anchor_term(geom, _outer_term(geom, ao, beta), eta, ai, anchor)
    _prox_kernel(vg, anchor, beta + eta, arg, _bind_prox(geom, arg, out))
    return out


# -- per-node oracles -------------------------------------------------------------

class BilinearNode:
    """Node oracle for the matrix game f(x, y) = y^T A x."""

    def __init__(self, A: np.ndarray):
        self.A = A

    def h(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(gradient of f in x, gradient of -f in y)."""
        return self.A.T @ y, -self.A @ x


class L1Node:
    """Node oracle for f(x, y) = ||diag(b) x - c||_1 + y^T C x - ||y||_1."""

    def __init__(self, b: np.ndarray, c: np.ndarray, C: np.ndarray):
        self.B = np.diag(b)
        self.c = c
        self.C = C

    def value(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.abs(self.B @ x - self.c).sum() + y @ self.C @ x
                     - np.abs(y).sum())

    def h(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(subgradient of f in x, subgradient of -f in y), sign(0) = 0."""
        # einsum sums in the order of the stacked H, so each node's block of
        # StackedSPP.H equals this bit for bit; matmul's gemv may not
        s = np.sign(np.einsum("pi,i->p", self.B, x) - self.c)
        return (np.einsum("pi,p->i", self.B, s) + np.einsum("ji,j->i", self.C, y),
                np.sign(y) - np.einsum("ji,i->j", self.C, x))


# -- consensus-constrained QPs and the reference solver ------------------------

@dataclass
class ConsensusQP:
    """min over stacked x of u(x) = sum_i (x_i^T P_i x_i / 2 + q_i^T x_i)
    subject to consensus W x = 0, with wide box bounds that stay inactive.

    ``R_sq`` is ||grad u(x*)||^2 / lambda_min_plus, the penalty radius the
    reformulation needs; ``U`` is the penalized objective
    u(x) + (R_sq / epsilon) ||W x||^2.
    """

    P: np.ndarray
    q: np.ndarray
    net: NetworkModel
    epsilon: float
    box_half_width: float
    R_sq: float
    w_star: np.ndarray
    u_star: float
    mu: float
    L_u: float

    @property
    def m(self) -> int:
        return self.P.shape[0]

    @property
    def d(self) -> int:
        return self.P.shape[2]

    def u(self, X: np.ndarray) -> float:
        quad = np.einsum("ni,nij,nj->", X, self.P, X)
        return float(0.5 * quad + np.sum(self.q * X))

    def grad_u(self, X: np.ndarray) -> np.ndarray:
        return np.einsum("nij,nj->ni", self.P, X) + self.q

    def penalty_scale(self) -> float:
        return 2.0 * self.R_sq / self.epsilon

    def U(self, X: np.ndarray) -> float:
        return self.u(X) + 0.5 * self.penalty_scale() * float(
            np.sum(X * self.net.block_product(X)))

    def grad_U(self, X: np.ndarray) -> np.ndarray:
        return self.grad_u(X) + self.penalty_scale() * self.net.block_product(X)

    def L_U(self) -> float:
        return self.L_u + self.penalty_scale() * self.net.lambda_max

    def project(self, X: np.ndarray) -> np.ndarray:
        w = self.box_half_width
        return np.clip(X, -w, w)

    def solve_penalized_exact(self) -> np.ndarray:
        """Unconstrained minimizer of U by one dense linear solve; valid while
        the box stays inactive (checked)."""
        m, d = self.m, self.d
        A = np.zeros((m * d, m * d))
        for i in range(m):
            A[i * d:(i + 1) * d, i * d:(i + 1) * d] = self.P[i]
        A += self.penalty_scale() * np.kron(self.net.W_tilde, np.eye(d))
        X = np.linalg.solve(A, -self.q.ravel()).reshape(m, d)
        if np.max(np.abs(X)) > self.box_half_width:
            raise DomainError("penalized minimizer escaped the box; widen it")
        return X


def make_consensus_qp(m: int, d: int, net: NetworkModel, epsilon: float,
                      seed) -> ConsensusQP:
    """Random strongly convex consensus QP; P_i eigenvalues in [0.5, 2]."""
    if net.m != m:
        raise DimensionError("network node count must equal m")
    if net.lambda_min_plus is None:
        raise ParameterError("consensus QP needs a connected network")
    rng = np.random.default_rng(seed)
    P = np.empty((m, d, d))
    for i in range(m):
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        P[i] = Q @ np.diag(rng.uniform(0.5, 2.0, d)) @ Q.T
    q = rng.uniform(-1.0, 1.0, (m, d))
    w_star = np.linalg.solve(P.sum(axis=0), -q.sum(axis=0))
    X_star = np.tile(w_star, (m, 1))
    g_star = np.einsum("nij,j->ni", P, w_star) + q
    R_sq = float(np.sum(g_star ** 2)) / net.lambda_min_plus
    u_star = float(0.5 * np.einsum("ni,nij,nj->", X_star, P, X_star)
                   + np.sum(q * X_star))
    eigs = np.linalg.eigvalsh(P)
    return ConsensusQP(P=P, q=q, net=net, epsilon=float(epsilon),
                       box_half_width=10.0, R_sq=R_sq, w_star=w_star,
                       u_star=u_star, mu=float(eigs.min()),
                       L_u=float(eigs.max()))


def accelerated_projected_gradient(grad: Callable[[np.ndarray], np.ndarray],
                                   project: Callable[[np.ndarray], np.ndarray],
                                   x0: np.ndarray, lipschitz: float, mu: float,
                                   tol: float, max_iter: int = 200000,
                                   return_path: bool = False):
    """Projected gradient with strong-convexity momentum (constant step 1/L,
    momentum (sqrt(L) - sqrt(mu)) / (sqrt(L) + sqrt(mu))).

    Stops when the gradient-mapping norm L * ||y - project(y - grad(y)/L)||
    drops to ``tol``. Returns the final point, or (point, path) with all
    accepted iterates when ``return_path`` is set.
    """
    if not (lipschitz > 0 and 0 < mu <= lipschitz):
        raise ParameterError("needs 0 < mu <= lipschitz")
    theta = ((math.sqrt(lipschitz) - math.sqrt(mu))
             / (math.sqrt(lipschitz) + math.sqrt(mu)))
    x = np.asarray(x0, dtype=float).copy()
    y = x.copy()
    path = [x.copy()] if return_path else None
    for _ in range(max_iter):
        x_new = project(y - grad(y) / lipschitz)
        if lipschitz * float(np.linalg.norm(x_new - y)) <= tol:
            x = x_new
            if return_path:
                path.append(x.copy())
            break
        y = x_new + theta * (x_new - x)
        x = x_new
        if return_path:
            path.append(x.copy())
    else:
        raise DomainError(f"projected gradient did not reach tol = {tol} "
                          f"within {max_iter} iterations")
    return (x, path) if return_path else x


# -- sup-gap estimate ------------------------------------------------------------

def sup_gap_slsqp(problem: VIProblem, z_bar, restarts: int = 8, seed=0) -> float:
    """sup over feasible z of Q(z_bar, z) for skew-linear H and convex G.

    For skew-linear H, <H(z), z_bar - z> = -<H(z_bar), z>, so the supremum is
    a concave maximization G(z_bar) - min_z [G(z) + <H(z_bar), z>] solved by
    SLSQP over the simplex/box structure; every local optimum is global, the
    restarts only guard against solver stalls. A stalled solve returns a
    value below the supremum, so this is an estimate, not a bound.
    """
    geom = problem.set_geometry
    fset = geom.feasible_set
    if problem.value_G is None:
        raise ConfigurationError("sup-gap oracle needs problem.value_G")
    zb = np.asarray(z_bar, dtype=float)
    if not fset.contains(zb):
        raise DomainError("z_bar lies outside the feasible set")
    h_zb = problem.H(zb)
    skew = abs(float(np.dot(h_zb, zb)))
    if skew > 1e-8 * (1.0 + np.linalg.norm(h_zb) * np.linalg.norm(zb)):
        raise ConfigurationError("H is not skew at z_bar; oracle inapplicable")
    G_zb = float(problem.value_G(zb))

    def f(z: np.ndarray) -> float:
        return float(problem.value_G(z) + h_zb @ z)

    def jac(z: np.ndarray) -> np.ndarray:
        return problem.grad_G(z) + h_zb

    bounds = []
    constraints = []
    for a, b, lo, up in blocks(fset):
        if lo is not None:
            bounds.extend(zip(lo, up))
            continue
        bounds.extend([(0.0, 1.0)] * (b - a))
        grad_row = np.zeros(fset.dim)
        grad_row[a:b] = 1.0
        constraints.append({
            "type": "eq",
            "fun": (lambda z, a=a, b=b: float(z[a:b].sum()) - 1.0),
            "jac": (lambda z, row=grad_row: row),
        })

    rng = np.random.default_rng(seed)
    starts = [zb, fset.center()]
    if restarts > len(starts):
        starts.extend(fset.sample(rng, restarts - len(starts)))
    best = min(f(s) for s in starts)
    for s in starts:
        res = optimize.minimize(f, s, jac=jac, method="SLSQP", bounds=bounds,
                                constraints=constraints,
                                options={"maxiter": 300, "ftol": 1e-12})
        cand = fset.project(res.x)
        best = min(best, f(cand))
    return G_zb - best

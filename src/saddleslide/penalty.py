"""Penalty reformulation of consensus-constrained saddle problems.

The target problem is min over stacked x, max over stacked y of
F(x, y) = sum_i f_i(x_i, y_i) subject to consensus (W x = 0, W y = 0), with
one gossip network W for both blocks.
The constraints are moved into the objective as quadratic penalties
(R_alpha^2/eps) ||W x||^2 on the x side and a matching term on the y side,
with R^2 = (subgradient bound)^2 / lambda_min_plus.  Any eps-solution of the
penalized saddle problem is then an O(eps)-solution of the constrained one,
and its consensus residual ||W x|| is O(eps / R).

Sign note: the saddle objective subtracts the concave y-penalty, but the VI
operator stacks (grad_x, -grad_y), so the smooth part enters the solver as
the convex potential G(z) = (R_alpha^2/eps)||W x||^2 +
(R_beta^2/eps)||W y||^2 with gradient positive on both blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionError,
    ParameterError,
)
from .geometry import SQUARED_EUCLIDEAN, GeometrySpec, ProductSet
from .network import NetworkModel
from .sliding import VIProblem


@dataclass
class StackedSPP:
    """Sum-type saddle problem stacked over m nodes.

    Node i holds f_i(x_i, y_i) with x_i in ``set_x`` and y_i in ``set_y``
    (the per-node feasible sets, shared by all nodes). A stacked point z
    lists all x blocks, then all y blocks, so dim = m (d_x + d_y). The
    problem is seen only through its stacked monotone operator
    H(z) = (subgrad_x f_i(x_i, y_i); subgrad_y(-f_i)(x_i, y_i))_i, which
    :meth:`H` evaluates through ``batched_H``: it maps stacked points z of
    shape (..., dim) to H(z) of the same shape, each row on its own. How H
    is stored is the instance family's business (see ``instances``).

    ``linear_H`` is not read here: the matrix-game factory stores its
    row-sparse operator values in it, because the benchmark in
    ``perfbench/`` reports ``linear_H.nbytes`` as ``penalty.linear_H_bytes``.
    Other families leave it None.

    ``subgrad_bound_x`` / ``subgrad_bound_y`` bound the stacked x and y
    subgradient norms over the feasible set, and ``operator_bound`` bounds
    ||H(z)||; they set the penalty radii and the oracle certificate.
    """

    m: int
    set_x: ProductSet
    set_y: ProductSet
    subgrad_bound_x: float
    subgrad_bound_y: float
    operator_bound: float
    batched_H: Callable[[np.ndarray], np.ndarray]
    linear_H: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.m < 1:
            raise ParameterError("StackedSPP needs m >= 1 nodes")
        if not callable(self.batched_H):
            raise ParameterError("StackedSPP needs a callable batched_H")

    @property
    def d_x(self) -> int:
        return self.set_x.dim

    @property
    def d_y(self) -> int:
        return self.set_y.dim

    @property
    def dim(self) -> int:
        return self.m * (self.d_x + self.d_y)

    def split(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stacked points (..., dim) -> (X, Y) with one node per row,
        shapes (..., m, d_x) and (..., m, d_y)."""
        lead, m = z.shape[:-1], self.m
        cut = m * self.d_x
        return (z[..., :cut].reshape(lead + (m, self.d_x)),
                z[..., cut:].reshape(lead + (m, self.d_y)))

    def H(self, z: np.ndarray) -> np.ndarray:
        """Stacked operator (subgrad_x f_i; subgrad_y(-f_i)) over all nodes.

        Acts row-wise along the last axis: ``z`` is one point of shape
        (dim,) or a batch of shape (..., dim), and the result has the shape
        of ``z``. Rows of a batch are evaluated independently, and each row
        is bitwise equal to the single-point call on it.
        """
        return self.batched_H(z)

    def stacked_set(self) -> ProductSet:
        return ProductSet([self.set_x] * self.m + [self.set_y] * self.m)

    def stacked_geometry(self) -> GeometrySpec:
        return GeometrySpec(dgf=SQUARED_EUCLIDEAN, feasible_set=self.stacked_set())

    def center(self) -> np.ndarray:
        """Canonical start: per-block set centers, stacked."""
        return self.stacked_set().center()


@dataclass(frozen=True)
class PenaltyCoefficients:
    """Squared penalty radii and the accuracy they were derived for."""

    R_alpha_sq: float
    R_beta_sq: float
    epsilon: float

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ParameterError("epsilon must be a positive real")
        for name in ("R_alpha_sq", "R_beta_sq"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ParameterError(f"{name} must be a finite nonnegative real")


def penalty_coefficients(spp: StackedSPP, net: NetworkModel, epsilon: float,
                         bound_x: float, bound_y: float) -> PenaltyCoefficients:
    """R_alpha_sq = bound_x^2 / lambda_min_plus(W_tilde), R_beta_sq likewise
    from bound_y.

    The bounds must dominate the stacked subgradient norms over the whole
    feasible set; a uniform over-estimate only strengthens the penalty
    guarantee. The single node, the only network without a positive
    eigenvalue, has W_tilde = 0, so G vanishes and its radii are 0.0.
    """
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ParameterError("epsilon must be a positive real")
    for name, v in (("bound_x", bound_x), ("bound_y", bound_y)):
        if not (np.isfinite(v) and v >= 0):
            raise ParameterError(f"{name} must be a finite nonnegative real")
    if net.m != spp.m:
        raise DimensionError("network node count must match the stacked problem")
    if net.lambda_min_plus is None:
        return PenaltyCoefficients(0.0, 0.0, float(epsilon))
    return PenaltyCoefficients(
        R_alpha_sq=bound_x ** 2 / net.lambda_min_plus,
        R_beta_sq=bound_y ** 2 / net.lambda_min_plus,
        epsilon=float(epsilon))


def build_penalized_vi(spp: StackedSPP, net: NetworkModel,
                       coeffs: PenaltyCoefficients) -> VIProblem:
    """Assemble the penalized VI the sliding solver consumes.

    The smooth part is G(z) = (R_alpha^2/eps)||W x||^2 +
    (R_beta^2/eps)||W y||^2 with gradient ((2R_alpha^2/eps) W_tilde x,
    (2R_beta^2/eps) W_tilde y) evaluated through the per-edge product,
    L = max over blocks of (2R^2/eps) lambda_max. One grad_G evaluation costs
    one communication round (the x and y blocks ride the same exchange), or
    zero when the network is degenerate (G vanishes identically and the
    problem reduces to the centralized one; L then falls back to max(M, 1)
    because the step-size schedule divides by L, and any upper bound is valid
    for a constant G).

    The nonsmooth part keeps the stacked subgradient operator H with the
    bounded-operator certificate M = L0^2 / (2 eps), delta = 2 eps, where L0
    is spp.operator_bound. The accuracy eps is ``coeffs.epsilon``, the one
    the penalty radii were derived for.
    """
    if net.m != spp.m:
        raise ConfigurationError(
            f"network node count {net.m} must match m = {spp.m}")
    m, dx, dy = spp.m, spp.d_x, spp.d_y
    epsilon = coeffs.epsilon
    cx = 2.0 * coeffs.R_alpha_sq / epsilon
    cy = 2.0 * coeffs.R_beta_sq / epsilon
    cut = m * dx

    L_pen = max(cx * net.lambda_max, cy * net.lambda_max)
    degenerate = L_pen == 0.0

    L0 = spp.operator_bound
    M = L0 ** 2 / (2.0 * epsilon)
    delta = 2.0 * epsilon
    L = max(M, 1.0) if degenerate else L_pen

    if degenerate:
        def grad_G(z: np.ndarray) -> np.ndarray:
            return np.zeros_like(z)

        def value_G(z: np.ndarray) -> float:
            return 0.0

        rounds = 0
    else:
        def value_G(z: np.ndarray) -> float:
            X = z[:cut].reshape(m, dx)
            Y = z[cut:].reshape(m, dy)
            qx = float(np.sum(X * net.block_product(X)))
            qy = float(np.sum(Y * net.block_product(Y)))
            return 0.5 * (cx * qx + cy * qy)

        def grad_G(z: np.ndarray) -> np.ndarray:
            V = np.empty((m, dx + dy))
            V[:, :dx] = z[:cut].reshape(m, dx)
            V[:, dx:] = z[cut:].reshape(m, dy)
            P = net.block_product(V)
            out = np.empty_like(z)
            out[:cut] = (cx * P[:, :dx]).ravel()
            out[cut:] = (cy * P[:, dx:]).ravel()
            return out

        rounds = 1

    return VIProblem(
        set_geometry=spp.stacked_geometry(),
        grad_G=grad_G,
        L=L,
        H=spp.H,
        M=M,
        delta=delta,
        value_G=value_G,
        rounds_per_grad_G=rounds,
    )

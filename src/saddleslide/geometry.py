"""Feasible sets, Bregman geometry and the two-anchor prox mapping.

Points are dense float64 vectors; block structure lives in the feasible set.
Supported set kinds are boxes, probability simplexes and finite products of
those. A geometry pairs a set with a distance generating function: squared
euclidean distance (any set) or negative entropy (simplex blocks only).

The divergence convention is ``bregman_divergence(geom, a, b)`` = divergence
of ``a`` relative to the anchor ``b``; for entropy that is KL(a || b). The
solver measures distances from an anchor via ``bregman_divergence(geom, z,
anchor)``, which is the quantity the two-anchor prox penalizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, ParameterError

# Feasibility slack applied to every membership test.
TAU_FEAS = 1e-9
# Entropy terms clip their log arguments at this floor.
ENTROPY_CLIP = 1e-30

SQUARED_EUCLIDEAN = "squared_euclidean"
NEGATIVE_ENTROPY = "negative_entropy"


def _as_vector(p, dim: int) -> np.ndarray:
    v = np.asarray(p, dtype=float)
    if v.ndim != 1 or v.shape[0] != dim:
        raise DimensionError(f"expected a vector of length {dim}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError("point contains non-finite entries")
    return v


class FeasibleSet:
    """Base class; subclasses implement contains/project over their own kind."""

    dim: int = 0
    kind: str = "abstract"

    def contains(self, p, tol: float = TAU_FEAS) -> bool:
        raise NotImplementedError

    def project(self, p) -> np.ndarray:
        raise NotImplementedError

    # Interior point used as a generic reference/start.
    def center(self) -> np.ndarray:
        raise NotImplementedError

    # Squared euclidean diameter, exact for every supported kind.
    def diameter_sq(self) -> float:
        raise NotImplementedError

    # n independent uniform-ish feasible points, one per row.
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    # Hot-loop projection hook: v is already a validated float vector.
    def _project_vec(self, v: np.ndarray) -> np.ndarray:
        return self.project(v)

    def leaves(self) -> list["FeasibleSet"]:
        return [self]


class Box(FeasibleSet):
    """Axis-aligned box {p : lower <= p <= upper}."""

    kind = "box"

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float).ravel()
        self.upper = np.asarray(upper, dtype=float).ravel()
        if self.lower.shape != self.upper.shape:
            raise DimensionError("box bounds must have equal length")
        if not (np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))):
            raise DomainError("box bounds must be finite")
        if np.any(self.lower > self.upper):
            raise DomainError("box has empty intervals (lower > upper)")
        self.dim = self.lower.shape[0]

    def contains(self, p, tol: float = TAU_FEAS) -> bool:
        v = _as_vector(p, self.dim)
        return bool(np.all(v >= self.lower - tol) and np.all(v <= self.upper + tol))

    def project(self, p) -> np.ndarray:
        return np.clip(_as_vector(p, self.dim), self.lower, self.upper)

    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def diameter_sq(self) -> float:
        return float(np.sum((self.upper - self.lower) ** 2))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(n, self.dim))


def _project_simplex_rows(V: np.ndarray) -> np.ndarray:
    # Euclidean projection of every row onto the probability simplex,
    # by the sorted cumulative-sum threshold rule.
    n, d = V.shape
    if d == 1:
        return np.ones_like(V)
    if d == 2:
        # closed form: project onto the line x0 + x1 = 1, then clip
        t = np.clip((V[:, 0] - V[:, 1] + 1.0) * 0.5, 0.0, 1.0)
        return np.stack((t, 1.0 - t), axis=1)
    U = -np.sort(-V, axis=1)
    css = np.cumsum(U, axis=1) - 1.0
    j = np.arange(1, d + 1, dtype=float)
    cond = U > css / j
    # largest index with cond true; cond[:, 0] is always true
    rho = d - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(n), rho] / (rho + 1.0)
    return np.maximum(V - theta[:, None], 0.0)


def _project_three_columns(x0, x1, x2, o0, o1, o2) -> None:
    # _project_simplex_rows for d = 3, one array per coordinate: rows
    # (x0[i], x1[i], x2[i]) are projected into (o0[i], o1[i], o2[i]).
    # A 3-comparator network sorts each row in descending order (an exact
    # permutation), and the cumulative sums, divisions and comparisons run
    # in the reference's order, so the result is bitwise the same.
    hi = np.maximum(x0, x1)
    lo = np.minimum(x0, x1)
    u1 = np.maximum(hi, x2)
    np.minimum(hi, x2, out=hi)
    u2 = np.maximum(lo, hi)
    u3 = np.minimum(lo, hi, out=lo)
    # q_k = (u_1 + ... + u_k - 1) / k; theta = q_k for the last k with u_k > q_k
    c = np.add(u1, u2)
    theta = np.subtract(u1, 1.0, out=u1)
    q = np.subtract(c, 1.0)
    np.divide(q, 2.0, out=q)
    np.copyto(theta, q, where=u2 > q)
    np.add(c, u3, out=c)
    np.subtract(c, 1.0, out=c)
    np.divide(c, 3.0, out=c)
    np.copyto(theta, c, where=u3 > c)
    for x, o in ((x0, o0), (x1, o1), (x2, o2)):
        np.subtract(x, theta, out=o)
        np.maximum(o, 0.0, out=o)


class Simplex(FeasibleSet):
    """Probability simplex {p >= 0, sum(p) = 1} in the given dimension."""

    kind = "simplex"

    def __init__(self, dim: int):
        if dim < 1:
            raise ParameterError("simplex dimension must be >= 1")
        self.dim = int(dim)

    def contains(self, p, tol: float = TAU_FEAS) -> bool:
        v = _as_vector(p, self.dim)
        return bool(np.all(v >= -tol) and abs(float(np.sum(v)) - 1.0) <= tol)

    def project(self, p) -> np.ndarray:
        v = _as_vector(p, self.dim)
        return _project_simplex_rows(v[None, :])[0]

    # Hot-loop entropy prox hook, defined on simplex-only sets: the softmax
    # of every simplex block of the validated log-weight vector.
    def _softmax_vec(self, logs: np.ndarray) -> np.ndarray:
        return _softmax_rows(logs[None, :])[0]

    def center(self) -> np.ndarray:
        return np.full(self.dim, 1.0 / self.dim)

    def diameter_sq(self) -> float:
        # distance between two vertices, or 0 in dimension 1
        return 2.0 if self.dim > 1 else 0.0

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.dirichlet(np.ones(self.dim), size=n)


class ProductSet(FeasibleSet):
    """Finite product of sets, stored flat with per-factor slices.

    Consecutive equal-dimension simplex factors and consecutive box factors
    are grouped, so that projection, membership and the entropy prox run as
    a handful of array operations regardless of the number of factors.
    ``_groups`` holds one tuple per group: ``("simplex", a, b, d, nb)`` for
    nb d-simplices on ``[a, b)``, ``("box", a, b, lower, upper)`` for boxes.
    """

    kind = "product"

    def __init__(self, factors):
        leaf_list: list[FeasibleSet] = []
        for f in factors:
            leaf_list.extend(f.leaves())
        if not leaf_list:
            raise ParameterError("product set needs at least one factor")
        self.factors = leaf_list
        self.dim = sum(f.dim for f in leaf_list)
        self.slices: list[slice] = []
        off = 0
        for f in leaf_list:
            self.slices.append(slice(off, off + f.dim))
            off += f.dim
        self._groups = self._build_groups()

    def leaves(self) -> list[FeasibleSet]:
        return list(self.factors)

    def _build_groups(self):
        groups = []
        i = 0
        n = len(self.factors)
        while i < n:
            f = self.factors[i]
            start = self.slices[i].start
            if isinstance(f, Simplex):
                j = i
                while j + 1 < n and isinstance(self.factors[j + 1], Simplex) \
                        and self.factors[j + 1].dim == f.dim:
                    j += 1
                stop = self.slices[j].stop
                groups.append(("simplex", start, stop, f.dim, j - i + 1))
                i = j + 1
            elif isinstance(f, Box):
                j = i
                lows, ups = [f.lower], [f.upper]
                while j + 1 < n and isinstance(self.factors[j + 1], Box):
                    j += 1
                    lows.append(self.factors[j].lower)
                    ups.append(self.factors[j].upper)
                stop = self.slices[j].stop
                groups.append(("box", start, stop, np.concatenate(lows), np.concatenate(ups)))
                i = j + 1
            else:
                raise ParameterError(f"unsupported set kind {f.kind!r}")
        return groups

    def contains(self, p, tol: float = TAU_FEAS) -> bool:
        v = _as_vector(p, self.dim)
        for g in self._groups:
            if g[0] == "simplex":
                _, a, b, d, nb = g
                V = v[a:b].reshape(nb, d)
                if not (np.all(V >= -tol) and np.all(np.abs(V.sum(axis=1) - 1.0) <= tol)):
                    return False
            else:
                _, a, b, lo, up = g
                w = v[a:b]
                if not (np.all(w >= lo - tol) and np.all(w <= up + tol)):
                    return False
        return True

    def project(self, p) -> np.ndarray:
        return self._project_vec(_as_vector(p, self.dim))

    def _project_vec(self, v: np.ndarray) -> np.ndarray:
        """Project flat ``v`` group by group, bitwise equal to
        ``_project_simplex_rows`` on every simplex group.

        Groups of 2- and 3-simplices run on the strided column views of the
        group (one array per coordinate, one entry per block); groups of
        1-simplices and of d >= 4 call ``_project_simplex_rows``.
        """
        out = np.empty_like(v)
        for g in self._groups:
            if g[0] == "simplex":
                _, a, b, d, nb = g
                if d == 2:
                    # the d = 2 closed form of _project_simplex_rows, written
                    # in place on the strided pair views of out
                    t = out[a:b:2]
                    np.subtract(v[a:b:2], v[a + 1:b:2], out=t)
                    np.add(t, 1.0, out=t)
                    np.multiply(t, 0.5, out=t)
                    np.maximum(t, 0.0, out=t)
                    np.minimum(t, 1.0, out=t)
                    np.subtract(1.0, t, out=out[a + 1:b:2])
                elif d == 3:
                    _project_three_columns(v[a:b:3], v[a + 1:b:3], v[a + 2:b:3],
                                           out[a:b:3], out[a + 1:b:3], out[a + 2:b:3])
                else:
                    out[a:b] = _project_simplex_rows(v[a:b].reshape(nb, d)).ravel()
            else:
                _, a, b, lo, up = g
                out[a:b] = np.clip(v[a:b], lo, up)
        return out

    def _softmax_vec(self, logs: np.ndarray) -> np.ndarray:
        """``Simplex._softmax_vec`` with one ``_softmax_rows`` call per group;
        every group must be a simplex group, which ``GeometrySpec`` checks."""
        out = np.empty_like(logs)
        for _, a, b, d, nb in self._groups:
            out[a:b] = _softmax_rows(logs[a:b].reshape(nb, d)).ravel()
        return out

    def center(self) -> np.ndarray:
        return np.concatenate([f.center() for f in self.factors])

    def diameter_sq(self) -> float:
        return float(sum(f.diameter_sq() for f in self.factors))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.hstack([f.sample(rng, n) for f in self.factors])


@dataclass(frozen=True)
class GeometrySpec:
    """A feasible set together with its distance generating function.

    Parameters
    ----------
    dgf : str
        Either ``"squared_euclidean"`` or ``"negative_entropy"``. Negative
        entropy may only be paired with a simplex or a product whose factors
        are all simplexes.
    feasible_set : FeasibleSet
        The constraint set the prox mapping outputs into.
    """

    dgf: str
    feasible_set: FeasibleSet

    def __post_init__(self):
        if self.dgf not in (SQUARED_EUCLIDEAN, NEGATIVE_ENTROPY):
            raise ParameterError(f"unknown distance generating function: {self.dgf!r}")
        if self.dgf == NEGATIVE_ENTROPY and not all(
                isinstance(f, Simplex) for f in self.feasible_set.leaves()):
            raise ParameterError(
                "negative entropy is only valid on simplex or product-of-simplex sets")

    @property
    def dim(self) -> int:
        return self.feasible_set.dim


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


def _softmax_rows(W: np.ndarray) -> np.ndarray:
    W = W - W.max(axis=1, keepdims=True)
    E = np.exp(W)
    P = E / E.sum(axis=1, keepdims=True)
    P = np.maximum(P, ENTROPY_CLIP)
    return P / P.sum(axis=1, keepdims=True)


def _outer_term(geom: GeometrySpec, anchor_outer: np.ndarray,
                beta: float) -> np.ndarray:
    """The outer anchor's share of the prox argument: ``beta * a_out`` for
    squared euclidean, ``beta * log a_out`` (clipped) for negative entropy.
    Constant over an outer iteration, so the solver computes it once there."""
    if geom.dgf == SQUARED_EUCLIDEAN:
        return beta * anchor_outer
    return beta * np.log(np.maximum(anchor_outer, ENTROPY_CLIP))


def _prox_kernel(geom: GeometrySpec, g: np.ndarray, outer: np.ndarray,
                 beta: float, anchor_inner: np.ndarray, eta: float) -> np.ndarray:
    """Unchecked two-anchor prox; callers guarantee feasible finite inputs.

    ``outer`` is ``_outer_term(geom, anchor_outer, beta)``.
    """
    w = beta + eta
    if geom.dgf == SQUARED_EUCLIDEAN:
        v = (outer + eta * anchor_inner - g) / w
        return geom.feasible_set._project_vec(v)
    logs = (outer + eta * np.log(np.maximum(anchor_inner, ENTROPY_CLIP)) - g) / w
    return geom.feasible_set._softmax_vec(logs)


def prox_two_anchor(geom: GeometrySpec, g, anchor_outer, beta: float,
                    anchor_inner, eta: float) -> np.ndarray:
    """Minimize ``<g, z> + beta*V(z, anchor_outer) + eta*V(z, anchor_inner)``.

    ``V(z, anchor)`` is ``bregman_divergence(geom, z, anchor)``. Closed forms:
    squared euclidean projects ``(beta*a_out + eta*a_in - g) / (beta + eta)``
    onto the set; negative entropy is a per-block softmax of
    ``(beta*log a_out + eta*log a_in - g) / (beta + eta)``, evaluated in log
    space with max subtraction and clipped at the entropy floor.

    Parameters
    ----------
    g : array
        Linear term.
    anchor_outer, anchor_inner : array
        Feasible anchors; for entropy they must be strictly positive.
    beta, eta : float
        Nonnegative weights with ``beta + eta > 0``.
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
    return _prox_kernel(geom, vg, _outer_term(geom, ao, beta), beta, ai, eta)


def _omega_sq_one(dgf: str, f: FeasibleSet, z0: np.ndarray) -> float:
    if dgf == NEGATIVE_ENTROPY:
        if np.any(z0 <= 0.0):
            raise DomainError("entropy omega bound needs a strictly interior start")
        return float(np.max(np.log(1.0 / z0)))
    if isinstance(f, Box):
        return 0.5 * float(np.sum(np.maximum((z0 - f.lower) ** 2, (f.upper - z0) ** 2)))
    if isinstance(f, Simplex):
        # farthest vertex: 0.5 * (||z0||^2 + 1 - 2 min_i z0_i)
        return 0.5 * (float(np.dot(z0, z0)) + 1.0 - 2.0 * float(np.min(z0)))
    raise ParameterError(f"unsupported set kind {f.kind!r}")


def omega_sq_bound(geom: GeometrySpec, z0) -> float:
    """Exact value of ``sup_z V(z, z0)`` over the feasible set.

    Squared euclidean evaluates the farthest corner (box) or farthest vertex
    (simplex); negative entropy on a simplex gives ``max_i log(1 / z0_i)``,
    which is ``log d`` at the uniform start. Products sum blockwise.
    """
    v = _as_vector(z0, geom.dim)
    if not geom.feasible_set.contains(v):
        raise DomainError("start point lies outside the feasible set")
    leaves = geom.feasible_set.leaves()
    total = 0.0
    off = 0
    for f in leaves:
        total += _omega_sq_one(geom.dgf, f, v[off:off + f.dim])
        off += f.dim
    return total

"""Feasible sets, Bregman geometry and the two-anchor prox mapping.

Points are dense float64 vectors; block structure lives in the feasible set.
There is one feasible-set class, ``ProductSet``: a finite product of boxes
and probability simplexes, described only by its groups of equal-width
blocks (see its docstring). ``Box`` and ``Simplex`` are its one-group
constructors. A geometry pairs a set with a distance generating function:
squared euclidean distance (any set) or negative entropy (simplex blocks
only).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import DimensionError, DomainError, ParameterError, is_int

try:
    # np.clip reaches this ufunc through four Python wrapper frames: 3.4 us
    # against 0.9 us per call on 32 floats (numpy 2.4, 2-vCPU Xeon), with
    # the same result. The box prox calls it directly; older numpy keeps
    # the public function.
    from numpy._core.umath import clip as _clip
except ImportError:
    _clip = np.clip

# Feasibility slack applied to every membership test.
TAU_FEAS = 1e-9
# Entropy terms clip their log arguments at this floor.
ENTROPY_CLIP = 1e-30
# Floats per generator call of ProductSet.sample (512 kB); see its comment.
SAMPLE_CHUNK = 1 << 16

SQUARED_EUCLIDEAN = "squared_euclidean"
NEGATIVE_ENTROPY = "negative_entropy"


def _constant(x: float) -> np.ndarray:
    c = np.array(x)
    c.flags.writeable = False
    return c


# Read-only 0-d operands for the per-prox ufunc calls: numpy turns a Python
# float operand into a new 0-d array on every call (about 0.3 us per call
# with numpy 2.4 on a 2-vCPU Xeon, a third of a 16-float add).
_ZERO, _HALF, _ONE, _TWO, _THREE, _CLIP = map(_constant, (0.0, 0.5, 1.0, 2.0, 3.0,
                                                           ENTROPY_CLIP))


def _as_vector(p, dim: int) -> np.ndarray:
    v = np.asarray(p, dtype=float)
    if v.ndim != 1 or v.shape[0] != dim:
        raise DimensionError(f"expected a vector of length {dim}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError("point contains non-finite entries")
    return v


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


def _project_three_columns(x0, x1, x2, o0, o1, o2, scratch) -> None:
    # _project_simplex_rows for d = 3, one array per coordinate: rows
    # (x0[i], x1[i], x2[i]) are projected into (o0[i], o1[i], o2[i]).
    # ``scratch`` is six float arrays and one bool array of the column length.
    # A 3-comparator network sorts each row in descending order (an exact
    # permutation), and the cumulative sums, divisions and comparisons run
    # in the reference's order, so the result is bitwise the same.
    hi, lo, u1, u2, c, q, mask = scratch
    np.maximum(x0, x1, out=hi)
    np.minimum(x0, x1, out=lo)
    np.maximum(hi, x2, out=u1)
    np.minimum(hi, x2, out=hi)
    np.maximum(lo, hi, out=u2)
    u3 = np.minimum(lo, hi, out=lo)
    # q_k = (u_1 + ... + u_k - 1) / k; theta = q_k for the last k with u_k > q_k
    np.add(u1, u2, c)
    theta = np.subtract(u1, _ONE, u1)
    np.subtract(c, _ONE, q)
    np.divide(q, _TWO, q)
    np.copyto(theta, q, where=np.greater(u2, q, mask))
    np.add(c, u3, c)
    np.subtract(c, _ONE, c)
    np.divide(c, _THREE, c)
    np.copyto(theta, c, where=np.greater(u3, c, mask))
    for x, o in ((x0, o0), (x1, o1), (x2, o2)):
        np.subtract(x, theta, o)
        np.maximum(o, _ZERO, out=o)


def _bind_projection(group, src: np.ndarray, dst: np.ndarray):
    # One group's euclidean projection from src into dst, on views and
    # scratch built here once; bitwise equal to _project_simplex_rows on a
    # simplex group and to np.clip on a box group.
    kind, a, b, d, nb, *bounds = group
    if kind == "box":
        s, o = src[a:b], dst[a:b]
        lo, up = bounds
        return lambda: _clip(s, lo, up, out=o)
    if d == 1:
        o = dst[a:b]
        return lambda: o.fill(1.0)
    if d == 2:
        # the d = 2 closed form of _project_simplex_rows, written in place
        # on the strided pair views of dst
        s0, s1, t, o1 = src[a:b:2], src[a + 1:b:2], dst[a:b:2], dst[a + 1:b:2]

        def pairs():
            np.subtract(s0, s1, t)
            np.add(t, _ONE, t)
            np.multiply(t, _HALF, t)
            _clip(t, _ZERO, _ONE, out=t)
            np.subtract(_ONE, t, o1)

        return pairs
    if d == 3:
        cols = (src[a:b:3], src[a + 1:b:3], src[a + 2:b:3],
                dst[a:b:3], dst[a + 1:b:3], dst[a + 2:b:3])
        scratch = (*(np.empty(nb) for _ in range(6)), np.empty(nb, dtype=bool))
        return lambda: _project_three_columns(*cols, scratch)
    S, D = src[a:b].reshape(nb, d), dst[a:b].reshape(nb, d)
    return lambda: np.copyto(D, _project_simplex_rows(S))


def _bind_softmax(group, src: np.ndarray, dst: np.ndarray):
    # One simplex group's entropy-prox softmax of the log-weights in src,
    # written into dst: per block, subtract the max, exponentiate, normalize,
    # clip at ENTROPY_CLIP and normalize again.
    _, a, b, d, nb = group
    S, D = src[a:b].reshape(nb, d), dst[a:b].reshape(nb, d)
    col = np.empty((nb, 1))

    def softmax():
        np.maximum.reduce(S, axis=1, keepdims=True, out=col)
        np.subtract(S, col, D)
        np.exp(D, D)
        np.add.reduce(D, axis=1, keepdims=True, out=col)
        np.divide(D, col, D)
        np.maximum(D, _CLIP, out=D)
        np.add.reduce(D, axis=1, keepdims=True, out=col)
        np.divide(D, col, D)

    return softmax


class ProductSet:
    """Finite product of boxes and probability simplices, stored flat.

    This is the only feasible-set class, and ``_groups`` is its only
    description of the block layout: one tuple per run of consecutive blocks
    of one kind and one width d, either ``("simplex", a, b, d, nb)`` for nb
    d-simplices on ``[a, b)`` or ``("box", a, b, d, nb, lower, upper)`` for nb
    boxes of width d whose bounds are the flat arrays ``lower`` and ``upper``
    on ``[a, b)``. Projection, membership, sampling, ``center``,
    ``omega_sq_bound`` and the entropy prox run a handful of array operations
    per group, whatever the number of blocks; ``sample`` draws each group in
    chunks of about SAMPLE_CHUNK floats, bitwise what one generator call per
    block would draw, in the same order. ``Box`` and ``Simplex`` construct
    one-group sets. A product appends its factors' groups at their offsets
    and merges a group into the previous one when kind and d match. It reads
    the factors in runs of one repeated object: r copies of a one-group
    factor, such as the m node sets of a stacked problem, enter as one group
    of r times its blocks with tiled bounds, so building a product costs a
    few array operations per run, not per factor. A factor of several groups
    is appended copy by copy. Either way ``_groups`` is the same as for a
    product of distinct equal factors.
    """

    def __init__(self, factors):
        runs = []  # [kind, a, b, d, nb, lower pieces, upper pieces]
        dim = 0
        for _, same in groupby(factors, key=id):
            same = list(same)
            f, r = same[0], len(same)
            if not isinstance(f, ProductSet):
                raise ParameterError(f"unsupported factor type {type(f).__name__!r}")
            if len(f._groups) == 1:
                kind, a, b, d, nb, *bounds = f._groups[0]
                pieces = [([(kind, a, r * b, d, r * nb, *(np.tile(x, r) for x in bounds))],
                           r * f.dim)]
            else:
                pieces = [(f._groups, f.dim)] * r
            for groups, width in pieces:
                for kind, a, b, d, nb, *bounds in groups:
                    run = runs[-1] if runs else None
                    if run is not None and run[0] == kind and run[3] == d:
                        run[2] = dim + b
                        run[4] += nb
                    else:
                        run = [kind, dim + a, dim + b, d, nb, [], []]
                        runs.append(run)
                    if bounds:
                        run[5].append(bounds[0])
                        run[6].append(bounds[1])
                dim += width
        if not runs:
            raise ParameterError("product set needs at least one factor")
        self.dim = dim
        self._groups = [tuple(run[:5]) if run[0] == "simplex" else
                        (*run[:5], np.concatenate(run[5]), np.concatenate(run[6]))
                        for run in runs]

    def contains(self, p) -> bool:
        """True if the point ``p`` lies in the set up to the slack
        ``TAU_FEAS``: every entry of a simplex block at least -TAU_FEAS and
        its sum within TAU_FEAS of 1, every box entry at most TAU_FEAS
        outside its bounds.

        ``p`` may also be a ``(..., dim)`` batch of points, one per row along
        the last axis; then the result is True only if every row lies in the
        set (so True for an empty batch). A non-finite entry raises
        ``DomainError``.
        """
        tol = TAU_FEAS
        v = np.asarray(p, dtype=float)
        if v.ndim == 0 or v.shape[-1] != self.dim:
            raise DimensionError(
                f"expected points of length {self.dim} along the last axis, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise DomainError("point contains non-finite entries")
        v = v.reshape(-1, self.dim)
        r = v.shape[0]
        if r == 0:
            return True
        for g in self._groups:
            if g[0] == "simplex":
                _, a, b, d, nb = g
                V = v[:, a:b].reshape(r, nb, d)  # a view: one block per (row, block)
                if not V.min() >= -tol:
                    return False
                # block sums as in-order adds of the d column views: numpy
                # reduces a short last axis several times more slowly
                s = V[..., 0] + V[..., 1] if d > 1 else V[..., 0].copy()
                for k in range(2, d):
                    s += V[..., k]
                s -= 1.0
                np.abs(s, out=s)
                if not s.max() <= tol:
                    return False
            else:
                _, a, b, _, _, lo, up = g
                w = v[:, a:b]
                if not ((w >= lo - tol).all() and (w <= up + tol).all()):
                    return False
        return True

    def _bind(self, src: np.ndarray, dst: np.ndarray, softmax: bool = False):
        """A no-argument function that maps the flat array ``src`` into
        ``dst``: the euclidean projection, or with ``softmax`` the entropy
        prox's per-block softmax of log-weights (simplex-only sets).

        ``src`` and ``dst`` are distinct contiguous vectors of length dim.
        Every view and scratch array is built here, once, so each call runs
        only the group ufuncs with ``out=``: bind once per solve and call per
        prox. ``src`` is read, never written. Groups of 2- and 3-simplices
        run on strided column views (one array per coordinate, one entry per
        block); groups of 1-simplices and of d >= 4 call
        ``_project_simplex_rows``.
        """
        bind = _bind_softmax if softmax else _bind_projection
        steps = [bind(g, src, dst) for g in self._groups]
        if len(steps) == 1:
            return steps[0]

        def run():
            for step in steps:
                step()

        return run

    # Interior point used as a generic reference/start: the barycenter of
    # every simplex, the midpoint of every box.
    def center(self) -> np.ndarray:
        out = np.empty(self.dim)
        for _, a, b, d, _, *bounds in self._groups:
            out[a:b] = 0.5 * (bounds[0] + bounds[1]) if bounds else 1.0 / d
        return out

    def linear_min(self, g) -> float:
        """min over s in the set of <g, s>, attained at a vertex: the smallest
        entry of g per simplex block, min(g lower, g upper) per box coordinate."""
        v = _as_vector(g, self.dim)
        total = 0.0
        for _, a, b, d, nb, *bounds in self._groups:
            w = v[a:b]
            total += float(np.minimum(w * bounds[0], w * bounds[1]).sum() if bounds
                           else w.reshape(nb, d).min(axis=1).sum())
        return total

    # n independent feasible points, one per row: uniform on a box, flat
    # Dirichlet on a simplex. A Generator fills its (nb, n, d) output in C
    # order, so it consumes the stream as nb block-by-block (n, d) draws
    # would, bit for bit, and a draw split along its leading (block, point)
    # rows is bitwise the whole draw. Each group is drawn in chunks of about
    # SAMPLE_CHUNK floats, written straight into the output: a run of whole
    # blocks, or a run of points of one block when a block alone is larger.
    # Each chunk is one strided pass over the output's rows, so the chunk
    # size trades memory for passes: three samples of 10^4 points from 16
    # boxes of width 2 took 13.3 ms at 2^15 floats (one block per chunk),
    # 11.0 ms at 2^16 (three blocks) and 10.6 ms as one whole-group draw
    # (numpy 2.4.6, 2-vCPU Xeon).
    # A group whose bounds are one interval passes them as scalars, which
    # takes numpy's faster scalar loop; both forms compute low + range * u
    # per element in one C routine. (lo + (up - lo) * rng.random(...) is not
    # bitwise on every build: whether that routine fuses its multiply-add
    # depends on the compiler flags numpy was built with.)
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        out = np.empty((n, self.dim))
        for _, a, b, d, nb, *bounds in self._groups:
            # one opaque item of d floats per (point, block), so a chunk is
            # copied a whole block row per element, bitwise, not d floats
            item = np.dtype((np.void, 8 * d))
            view = out[:, a:b].view(item)
            rows = max(1, SAMPLE_CHUNK // d)
            if n >= rows:
                pieces = [(k, k + 1, p, min(n, p + rows))
                          for k in range(nb) for p in range(0, n, rows)]
            else:
                step = rows // max(n, 1)
                pieces = [(k, min(nb, k + step), 0, n) for k in range(0, nb, step)]
            if bounds:
                lo, up = bounds
                scalar = lo.min() == lo.max() and up.min() == up.max()
                lo, up = (lo[0], up[0]) if scalar else (lo.reshape(nb, 1, d),
                                                        up.reshape(nb, 1, d))
            for b0, b1, p0, p1 in pieces:
                size = (b1 - b0, p1 - p0)
                if not bounds:
                    draw = rng.dirichlet(np.ones(d), size=size)
                elif scalar:
                    draw = rng.uniform(lo, up, size=size + (d,))
                else:
                    draw = rng.uniform(lo[b0:b1], up[b0:b1], size=size + (d,))
                view[p0:p1, b0:b1] = draw.view(item)[..., 0].T
        return out


class Box(ProductSet):
    """Axis-aligned box {p : lower <= p <= upper}, one block of width dim."""

    def __init__(self, lower, upper):
        lo = np.asarray(lower, dtype=float).ravel()
        up = np.asarray(upper, dtype=float).ravel()
        if lo.shape != up.shape or lo.size == 0:
            raise DimensionError("box bounds must have equal nonzero length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(up))):
            raise DomainError("box bounds must be finite")
        if np.any(lo > up):
            raise DomainError("box has empty intervals (lower > upper)")
        self.dim = lo.shape[0]
        self._groups = [("box", 0, self.dim, self.dim, 1, lo, up)]


class Simplex(ProductSet):
    """Probability simplex {p >= 0, sum(p) = 1} in the given dimension."""

    def __init__(self, dim: int):
        if not (is_int(dim) and dim >= 1):
            raise ParameterError(f"simplex dimension must be an integer >= 1, got {dim!r}")
        self.dim = int(dim)
        self._groups = [("simplex", 0, self.dim, self.dim, 1)]


@dataclass(frozen=True)
class GeometrySpec:
    """A feasible set together with its distance generating function.

    Parameters
    ----------
    dgf : str
        Either ``"squared_euclidean"`` or ``"negative_entropy"``. Negative
        entropy may only be paired with a simplex or a product whose factors
        are all simplexes.
    feasible_set : ProductSet
        The constraint set the prox mapping outputs into.
    """

    dgf: str
    feasible_set: ProductSet

    def __post_init__(self):
        if self.dgf not in (SQUARED_EUCLIDEAN, NEGATIVE_ENTROPY):
            raise ParameterError(f"unknown distance generating function: {self.dgf!r}")
        if self.dgf == NEGATIVE_ENTROPY and any(
                g[0] != "simplex" for g in self.feasible_set._groups):
            raise ParameterError(
                "negative entropy is only valid on simplex or product-of-simplex sets")

    @property
    def dim(self) -> int:
        return self.feasible_set.dim


def _outer_term(geom: GeometrySpec, anchor_outer: np.ndarray,
                beta: float) -> np.ndarray:
    """The outer anchor's share of the prox argument: ``beta * a_out`` for
    squared euclidean, ``beta * log a_out`` (clipped) for negative entropy.
    Constant over an outer iteration, so the solver computes it once there."""
    if geom.dgf == SQUARED_EUCLIDEAN:
        return beta * anchor_outer
    return beta * np.log(np.maximum(anchor_outer, ENTROPY_CLIP))


def _anchor_term(geom: GeometrySpec, outer: np.ndarray, eta,
                 anchor_inner: np.ndarray, out: np.ndarray) -> None:
    """Write both anchors' share of the prox argument into ``out``:
    ``outer + eta * a_in`` for squared euclidean, ``outer + eta * log a_in``
    (clipped) for negative entropy. Both prox calls of an inner step share
    it, so the solver computes it once per step. ``eta`` is a float or a 0-d
    array."""
    if geom.dgf == SQUARED_EUCLIDEAN:
        np.multiply(anchor_inner, eta, out)
    else:
        np.maximum(anchor_inner, _CLIP, out=out)
        np.log(out, out)
        np.multiply(out, eta, out)
    np.add(outer, out, out)


def _bind_prox(geom: GeometrySpec, arg: np.ndarray, dst: np.ndarray):
    """``ProductSet._bind`` of the map that closes the prox under ``geom``:
    projection for squared euclidean, softmax for negative entropy."""
    return geom.feasible_set._bind(arg, dst, softmax=geom.dgf == NEGATIVE_ENTROPY)


def _prox_kernel(g: np.ndarray, anchor: np.ndarray, w, arg: np.ndarray,
                 into) -> None:
    """Unchecked two-anchor prox: the minimizer over the set of ``<g, z> +
    beta*V(z, a_out) + eta*V(z, a_in)``, V the divergence of ``geom.dgf``
    from an anchor. Callers guarantee feasible finite inputs.

    Writes the prox argument ``(anchor - g) / w`` into ``arg`` and runs
    ``into``, a ``_bind_prox(geom, arg, dst)`` that maps it into ``dst``.
    ``anchor`` is ``_anchor_term(geom, _outer_term(geom, a_out, beta), eta,
    a_in, ...)`` and ``w`` is ``beta + eta``, a float or a 0-d array.
    """
    np.subtract(anchor, g, arg)
    np.divide(arg, w, arg)
    into()


def omega_sq_bound(geom: GeometrySpec, z0) -> float:
    """Exact value of ``sup_z V(z, z0)`` over the feasible set.

    Squared euclidean evaluates the farthest corner (box) or farthest vertex
    (simplex); negative entropy on a simplex gives ``max_i log(1 / z0_i)``,
    which is ``log d`` at the uniform start. Products sum blockwise.
    """
    v = _as_vector(z0, geom.dim)
    if not geom.feasible_set.contains(v):
        raise DomainError("start point lies outside the feasible set")
    terms = []   # one per block, in order
    for _, a, b, d, nb, *bounds in geom.feasible_set._groups:
        Z = v[a:b].reshape(nb, d)
        if geom.dgf == NEGATIVE_ENTROPY:
            if np.any(Z <= 0.0):
                raise DomainError("entropy omega bound needs a strictly interior start")
            terms.append(np.max(np.log(1.0 / Z), axis=1))
        elif bounds:
            lo, up = (x.reshape(nb, d) for x in bounds)
            terms.append(0.5 * np.sum(np.maximum((Z - lo) ** 2, (up - Z) ** 2), axis=1))
        else:
            # farthest vertex: 0.5 * (||z||^2 + 1 - 2 min_i z_i); np.vecdot
            # runs np.dot's ddot on each row
            terms.append(0.5 * (np.vecdot(Z, Z) + 1.0 - 2.0 * np.min(Z, axis=1)))
    # the running sum adds the block terms one at a time, in order
    return float(np.cumsum(np.concatenate(terms))[-1])

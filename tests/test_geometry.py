import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from saddleslide import (
    Box,
    DimensionError,
    DomainError,
    ENTROPY_CLIP,
    GeometrySpec,
    NEGATIVE_ENTROPY,
    ParameterError,
    ProductSet,
    SQUARED_EUCLIDEAN,
    Simplex,
    omega_sq_bound,
)
from saddleslide.geometry import _project_simplex_rows

from reference_oracles import blocks, bregman_divergence, prox_two_anchor

rng = np.random.default_rng(1207)


def _softmax_rows(W):
    # reference per-block softmax of the entropy prox: the grouped in-place
    # kernel must match it bit for bit
    W = W - W.max(axis=1, keepdims=True)
    E = np.exp(W)
    P = E / E.sum(axis=1, keepdims=True)
    P = np.maximum(P, ENTROPY_CLIP)
    return P / P.sum(axis=1, keepdims=True)


def euclid_geom(s):
    return GeometrySpec(SQUARED_EUCLIDEAN, s)


def entropy_geom(s):
    return GeometrySpec(NEGATIVE_ENTROPY, s)


def prox_objective(geom, z, g, a_out, beta, a_in, eta):
    return (float(np.dot(g, z))
            + beta * bregman_divergence(geom, z, a_out)
            + eta * bregman_divergence(geom, z, a_in))


def random_feasible(s):
    # block by block in layout order: uniform in a box, normalized uniform
    # weights on a simplex
    parts = []
    for a, b, lo, up in blocks(s):
        if lo is not None:
            parts.append(lo + rng.random(b - a) * (up - lo))
        else:
            w = rng.random(b - a) + 1e-3
            parts.append(w / w.sum())
    return np.concatenate(parts)


# -- bregman divergence -------------------------------------------------------

def test_entropy_divergence_frozen_value():
    geom = entropy_geom(Simplex(2))
    v = bregman_divergence(geom, [0.5, 0.5], [0.25, 0.75])
    assert v == pytest.approx(0.14384103622589042, abs=1e-12)
    assert v == pytest.approx(0.5 * math.log(2) + 0.5 * math.log(2 / 3), abs=1e-15)


def test_euclidean_divergence_is_half_squared_distance():
    geom = euclid_geom(Box(-np.ones(3), np.ones(3)))
    a = np.array([0.5, -0.5, 0.0])
    b = np.array([-0.5, 0.5, 1.0])
    assert bregman_divergence(geom, a, b) == pytest.approx(0.5 * np.sum((a - b) ** 2))


def test_divergence_zero_at_equal_points():
    geom = entropy_geom(Simplex(4))
    p = np.array([0.1, 0.2, 0.3, 0.4])
    assert bregman_divergence(geom, p, p) == pytest.approx(0.0, abs=1e-15)


def test_entropy_divergence_rejects_boundary_anchor():
    geom = entropy_geom(Simplex(2))
    with pytest.raises(DomainError):
        bregman_divergence(geom, [0.5, 0.5], [1.0, 0.0])


def test_entropy_divergence_pinsker():
    geom = entropy_geom(Simplex(5))
    for _ in range(200):
        a = random_feasible(geom.feasible_set)
        b = random_feasible(geom.feasible_set)
        lhs = bregman_divergence(geom, a, b)
        assert lhs >= 0.5 * np.sum(np.abs(a - b)) ** 2 - 1e-12


def test_euclidean_divergence_strong_convexity_lower_bound():
    s = ProductSet([Simplex(3), Box(np.zeros(2), np.ones(2))])
    geom = euclid_geom(s)
    for _ in range(100):
        a, b = random_feasible(s), random_feasible(s)
        assert bregman_divergence(geom, a, b) >= 0.5 * np.sum((a - b) ** 2) - 1e-12


# -- projection ---------------------------------------------------------------

def test_simplex_projection_frozen_example():
    np.testing.assert_allclose(Simplex(2).project([0.3, 0.3]), [0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 7])
def test_simplex_projection_matches_slsqp_oracle(d):
    s = Simplex(d)
    for _ in range(10):
        p = rng.standard_normal(d) * 2.0
        ours = s.project(p)
        res = minimize(
            lambda z: 0.5 * np.sum((z - p) ** 2),
            np.full(d, 1.0 / d),
            jac=lambda z: z - p,
            bounds=[(0.0, 1.0)] * d,
            constraints=[{"type": "eq", "fun": lambda z: np.sum(z) - 1.0}],
            method="SLSQP",
            options={"ftol": 1e-14, "maxiter": 500},
        )
        assert res.success
        np.testing.assert_allclose(ours, res.x, atol=1e-6)
        assert s.contains(ours)


def test_box_projection():
    b = Box([-1.0, 0.0], [1.0, 2.0])
    np.testing.assert_allclose(b.project([3.0, -1.0]), [1.0, 0.0])
    np.testing.assert_allclose(b.project([0.1, 0.2]), [0.1, 0.2])


def test_product_projection_is_blockwise():
    s = ProductSet([Simplex(2), Simplex(2), Box(np.zeros(1), np.ones(1))])
    p = np.array([0.3, 0.3, 2.0, -1.0, 5.0])
    out = s.project(p)
    np.testing.assert_allclose(out[:2], [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(out[2:4], Simplex(2).project([2.0, -1.0]), atol=1e-12)
    assert out[4] == 1.0


def pair_rows(n_pairs, start=0):
    # cycles through rows clipped at 0 (v0 - v1 < -1), clipped at 1
    # (v0 - v1 > 1) and two interior rows, beginning at kind ``start``
    kinds = [(-3.0, 0.5), (2.5, -0.75), (0.3, 0.1), (-0.2, 0.6)]
    return np.array([np.array(kinds[(start + i) % 4]) + rng.uniform(-0.05, 0.05, 2)
                     for i in range(n_pairs)])


@pytest.mark.parametrize("n_pairs", [1, 4, 8])
def test_two_simplex_fast_path_equals_reference_rows(n_pairs):
    s = ProductSet([Simplex(2)] * n_pairs)
    seen = set()
    for start in range(4):
        V = pair_rows(n_pairs, start)
        expected = _project_simplex_rows(V)
        out = s.project(V.ravel())
        for i in range(n_pairs):
            assert np.array_equal(out[2 * i:2 * i + 2], expected[i]), (start, i)
        seen.update("interior" if 0.0 < x < 1.0 else x for x in expected[:, 0])
    assert seen == {0.0, 1.0, "interior"}


def test_two_simplex_fast_path_in_mixed_product():
    box = Box([-1.0, 0.0, -2.0], [1.0, 2.0, 0.5])
    s = ProductSet([Simplex(2), Simplex(2), box, Simplex(3), Simplex(2)])
    pairs = pair_rows(3)
    p = np.concatenate([pairs[0], pairs[1], [3.0, -1.0, 0.2],
                        [0.9, -0.4, 0.3], pairs[2]])
    out = s.project(p)
    assert np.array_equal(out[:4], _project_simplex_rows(pairs[:2]).ravel())
    assert np.array_equal(out[4:7], box.project(p[4:7]))
    assert np.array_equal(out[7:10], _project_simplex_rows(p[None, 7:10])[0])
    assert np.array_equal(out[10:], _project_simplex_rows(pairs[2:])[0])
    assert s.contains(out)


# rows for the d = 3 column-wise path: free rows at magnitudes 1e-8 to 1e8,
# rows made of a few repeated values (ties, signed zeros), rows already on the
# simplex, and rows whose projection is a vertex
_TIE_VALUES = [0.0, -0.0, 1.0 / 3.0, 0.5, 1.0, -1.0, 2.0, 1e-8, -1e8]
_free_rows = st.tuples(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
                       st.integers(-8, 8)).map(
    lambda t: [x * 10.0 ** t[1] for x in t[0]])
_tie_rows = st.lists(st.sampled_from(_TIE_VALUES), min_size=3, max_size=3)
_simplex_rows = st.one_of(
    st.permutations([1.0, 0.0, 0.0]),
    st.permutations([0.5, 0.5, 0.0]),
    st.permutations([0.25, 0.25, 0.5]),
    st.permutations([1.0, -0.0, 0.0]),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
        lambda t: [t[0] * t[1], t[0] * (1.0 - t[1]), 1.0 - t[0]]))
_vertex_rows = st.tuples(st.floats(-1e3, 1e3), st.floats(1.0, 1e3),
                         st.floats(1.0, 1e3)).flatmap(
    lambda t: st.permutations([t[0], t[0] - t[1], t[0] - t[2]]))
three_rows = st.one_of(_free_rows, _tie_rows, _simplex_rows, _vertex_rows)


def assert_same_bits(a, b):
    # signed zeros count: compare the bit patterns, not the values
    assert np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@given(st.lists(three_rows, min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_three_simplex_column_path_is_bitwise_reference(rows):
    V = np.array(rows, dtype=float).reshape(-1, 3)
    s = ProductSet([Simplex(3)] * len(V))
    assert s._groups[0][3:] == (3, len(V))
    assert_same_bits(s.project(V.ravel()), _project_simplex_rows(V).ravel())


@given(st.lists(three_rows, min_size=3, max_size=3), st.lists(st.floats(-5, 5),
                                                             min_size=6, max_size=6))
@settings(max_examples=100, deadline=None)
def test_three_simplex_column_path_in_mixed_product(rows, rest):
    box = Box([-1.0, 0.0], [1.0, 2.0])
    s = ProductSet([Simplex(3), Simplex(2), box, Simplex(3), Simplex(3), Simplex(2)])
    V = np.array(rows, dtype=float)
    p = np.concatenate([V[0], rest[:2], rest[2:4], V[1], V[2], rest[4:]])
    out = s.project(p)
    assert_same_bits(out[0:3], _project_simplex_rows(V[:1])[0])
    assert_same_bits(out[3:5], _project_simplex_rows(p[None, 3:5])[0])
    assert_same_bits(out[5:7], box.project(p[5:7]))
    assert_same_bits(out[7:13], _project_simplex_rows(V[1:]).ravel())
    assert_same_bits(out[13:], _project_simplex_rows(p[None, 13:])[0])


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
@settings(max_examples=150, deadline=None)
def test_projection_idempotent_and_feasible(vals):
    d = len(vals)
    s = Simplex(d)
    q = s.project(np.array(vals))
    assert s.contains(q)
    np.testing.assert_allclose(s.project(q), q, atol=1e-12)


# -- two-anchor prox ----------------------------------------------------------

def test_prox_scalar_frozen_example():
    geom = euclid_geom(Box([-10.0], [10.0]))
    out = prox_two_anchor(geom, [4.0], [0.0], 1.0, [2.0], 3.0)
    np.testing.assert_allclose(out, [0.5], atol=1e-12)


def test_prox_scalar_grid_search_oracle():
    geom = euclid_geom(Box([-10.0], [10.0]))
    grid = np.linspace(-10, 10, 400001)
    for _ in range(20):
        g = rng.standard_normal() * 5
        ao, ai = rng.uniform(-9, 9), rng.uniform(-9, 9)
        beta, eta = rng.uniform(0, 3), rng.uniform(0.1, 3)
        out = prox_two_anchor(geom, [g], [ao], beta, [ai], eta)
        obj = g * grid + 0.5 * beta * (grid - ao) ** 2 + 0.5 * eta * (grid - ai) ** 2
        assert abs(out[0] - grid[np.argmin(obj)]) < 1e-4


@pytest.mark.parametrize("make_set,dgf", [
    (lambda: Box(-np.ones(4), np.ones(4)), SQUARED_EUCLIDEAN),
    (lambda: Simplex(5), SQUARED_EUCLIDEAN),
    (lambda: Simplex(5), NEGATIVE_ENTROPY),
    (lambda: ProductSet([Simplex(3), Simplex(3), Box(-np.ones(2), np.ones(2))]),
     SQUARED_EUCLIDEAN),
    (lambda: ProductSet([Simplex(3), Simplex(3)]), NEGATIVE_ENTROPY),
    (lambda: ProductSet([Simplex(2), Box(np.zeros(2), np.ones(2))]), SQUARED_EUCLIDEAN),
])
def test_prox_optimality_against_random_candidates(make_set, dgf):
    s = make_set()
    geom = GeometrySpec(dgf, s)
    for _ in range(25):
        g = rng.standard_normal(s.dim)
        ao, ai = random_feasible(s), random_feasible(s)
        beta, eta = rng.uniform(0, 2), rng.uniform(0.1, 2)
        z = prox_two_anchor(geom, g, ao, beta, ai, eta)
        assert s.contains(z)
        base = prox_objective(geom, z, g, ao, beta, ai, eta)
        for _ in range(40):
            w = random_feasible(s)
            assert base <= prox_objective(geom, w, g, ao, beta, ai, eta) + 1e-9


def test_prox_rejects_bad_weights_and_anchors():
    geom = euclid_geom(Simplex(2))
    ok = np.array([0.5, 0.5])
    with pytest.raises(ParameterError):
        prox_two_anchor(geom, [0.0, 0.0], ok, 0.0, ok, 0.0)
    with pytest.raises(DomainError):
        prox_two_anchor(geom, [0.0, 0.0], np.array([2.0, 2.0]), 1.0, ok, 1.0)
    gent = entropy_geom(Simplex(2))
    with pytest.raises(DomainError):
        prox_two_anchor(gent, [0.0, 0.0], np.array([1.0, 0.0]), 1.0, ok, 1.0)


def test_entropy_prox_stays_interior_under_extreme_gradients():
    geom = entropy_geom(Simplex(3))
    a = np.full(3, 1.0 / 3)
    z = prox_two_anchor(geom, np.array([0.0, 500.0, 900.0]), a, 1.0, a, 1.0)
    assert np.all(z > 0)
    assert np.all(np.isfinite(z))
    assert abs(z.sum() - 1.0) <= 1e-12


# (dimension, count) runs of simplex blocks: runs of equal dimension share a
# group of ProductSet._groups, and a lone block of a one-run list is also
# tried as a bare Simplex
_simplex_runs = st.lists(st.tuples(st.integers(1, 8), st.integers(1, 4)),
                         min_size=1, max_size=6)


@given(_simplex_runs, st.booleans(), st.integers(-2, 5), st.integers(0, 2 ** 32 - 1))
@example([(3, 2), (1, 1), (8, 3), (2, 4)], False, 5, 0)
@settings(max_examples=200, deadline=None)
def test_entropy_prox_is_bitwise_per_block_softmax(runs, bare, scale, seed):
    dims = [d for d, n in runs for _ in range(n)]
    if bare and len(dims) == 1:
        s = Simplex(dims[0])
    else:
        s = ProductSet([Simplex(d) for d in dims])
    geom = entropy_geom(s)
    r = np.random.default_rng(seed)
    cuts = np.cumsum(dims)[:-1]
    ao, ai = (np.concatenate([w / w.sum() for w in np.split(r.uniform(1e-3, 1.0, s.dim), cuts)])
              for _ in range(2))
    # scale 5 puts gradient gaps of ~1e5 into the softmax, far past the
    # log-weight gap of 69 at which entries fall to ENTROPY_CLIP
    g = r.uniform(-1.0, 1.0, s.dim) * 10.0 ** scale
    beta, eta = r.uniform(0.0, 3.0), r.uniform(0.1, 3.0)
    z = prox_two_anchor(geom, g, ao, beta, ai, eta)

    logs = (beta * np.log(np.maximum(ao, ENTROPY_CLIP))
            + eta * np.log(np.maximum(ai, ENTROPY_CLIP)) - g) / (beta + eta)
    ref = np.concatenate([_softmax_rows(b.reshape(1, -1)).ravel()
                          for b in np.split(logs, cuts)])
    assert_same_bits(z, ref)
    assert s.contains(z) and np.all(z > 0.0)
    # a block whose log-weights spread by more than 80 has an entry below
    # exp(-80) < ENTROPY_CLIP before clipping (the explicit example does)
    if max(np.ptp(b) for b in np.split(logs, cuts)) > 80.0:
        assert np.min(z) < 1e-29


# -- omega bound --------------------------------------------------------------

def test_omega_frozen_examples():
    g1 = euclid_geom(Box(np.zeros(2), np.ones(2)))
    assert omega_sq_bound(g1, np.zeros(2)) == pytest.approx(1.0)
    g2 = entropy_geom(Simplex(3))
    assert omega_sq_bound(g2, np.full(3, 1.0 / 3)) == pytest.approx(math.log(3), abs=1e-12)


def test_omega_entropy_non_uniform_start():
    geom = entropy_geom(Simplex(3))
    z0 = np.array([0.2, 0.3, 0.5])
    assert omega_sq_bound(geom, z0) == pytest.approx(math.log(5.0), abs=1e-12)


def test_omega_dominates_sampled_divergences():
    s = ProductSet([Simplex(3), Simplex(2), Box(-np.ones(2), np.ones(2))])
    geom = euclid_geom(s)
    z0 = random_feasible(s)
    bound = omega_sq_bound(geom, z0)
    for _ in range(300):
        z = random_feasible(s)
        assert bregman_divergence(geom, z, z0) <= bound + 1e-12


def _omega_per_block(geom, z0):
    # reference: one block at a time, each term added to a running float
    total = 0.0
    for a, b, lo, up in blocks(geom.feasible_set):
        z = z0[a:b]
        if geom.dgf == NEGATIVE_ENTROPY:
            total += float(np.max(np.log(1.0 / z)))
        elif lo is not None:
            total += 0.5 * float(np.sum(np.maximum((z - lo) ** 2, (up - z) ** 2)))
        else:
            total += 0.5 * (float(np.dot(z, z)) + 1.0 - 2.0 * float(np.min(z)))
    return total


@settings(max_examples=80, deadline=None)
@given(runs=st.lists(st.tuples(st.sampled_from(["simplex", "box"]), st.integers(1, 20),
                               st.integers(1, 40)), min_size=1, max_size=4),
       entropy=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_omega_equals_per_block_sum_bitwise(runs, entropy, seed):
    # one pass per group adds the same block terms, in the same order
    g = np.random.default_rng(seed)
    factors = []
    for kind, d, n in runs:
        if kind == "simplex" or entropy:
            factors += [Simplex(d)] * n
        else:
            lo = g.uniform(-2.0, 1.0, d * n)
            up = lo + g.uniform(0.0, 3.0, d * n)
            factors += [Box(lo[i:i + d], up[i:i + d]) for i in range(0, d * n, d)]
    geom = (entropy_geom if entropy else euclid_geom)(ProductSet(factors))
    for z0 in (geom.feasible_set.center(), geom.feasible_set.sample(g, 1)[0]):
        if entropy:
            z0 = np.maximum(z0, 1e-3)
            z0 = np.concatenate([z0[a:b] / z0[a:b].sum()
                                 for a, b, _, _ in blocks(geom.feasible_set)])
        assert omega_sq_bound(geom, z0) == _omega_per_block(geom, z0)


def test_omega_entropy_rejects_boundary_start():
    geom = entropy_geom(Simplex(2))
    with pytest.raises(DomainError):
        omega_sq_bound(geom, np.array([1.0, 0.0]))


# -- geometry validation ------------------------------------------------------

def test_entropy_requires_simplex_factors():
    with pytest.raises(ParameterError):
        GeometrySpec(NEGATIVE_ENTROPY, Box(np.zeros(2), np.ones(2)))
    with pytest.raises(ParameterError):
        GeometrySpec(NEGATIVE_ENTROPY, ProductSet([Simplex(2), Box(np.zeros(1), np.ones(1))]))
    GeometrySpec(NEGATIVE_ENTROPY, ProductSet([Simplex(2), Simplex(4)]))


@pytest.mark.parametrize("dim", [2.5, True, 0, -1, "3", None])
def test_simplex_needs_an_integer_dimension(dim):
    with pytest.raises(ParameterError):
        Simplex(dim)


def test_products_merge_groups_of_one_kind_and_width():
    s = ProductSet([Simplex(3), ProductSet([Simplex(3), Box([0.0, 1.0], [1.0, 2.0])]),
                    Box([-1.0, 0.0], [0.0, 3.0]), Box([5.0], [6.0]), Simplex(np.int64(3))])
    assert [g[:5] for g in s._groups] == [("simplex", 0, 6, 3, 2), ("box", 6, 10, 2, 2),
                                          ("box", 10, 11, 1, 1), ("simplex", 11, 14, 3, 1)]
    np.testing.assert_array_equal(s._groups[1][5], [0.0, 1.0, -1.0, 0.0])
    np.testing.assert_array_equal(s._groups[1][6], [1.0, 2.0, 0.0, 3.0])
    assert [b[:2] for b in blocks(s)] == [(0, 3), (3, 6), (6, 8), (8, 10), (10, 11),
                                          (11, 14)]
    with pytest.raises(ParameterError):
        ProductSet([])
    with pytest.raises(ParameterError):
        ProductSet([Simplex(2), np.ones(2)])


def test_linear_min_is_the_best_vertex_of_the_product():
    s = ProductSet([Box([-1.0, 0.5], [2.0, 0.75]), Simplex(1), Simplex(2), Simplex(3),
                    Simplex(3), Simplex(4), Box([-3.0], [-1.0]), Box([0.0, 2.0], [4.0, 2.5])])
    per_block = []
    for a, b, lo, up in blocks(s):
        if lo is None:
            per_block.append(list(np.eye(b - a)))
        else:
            per_block.append([np.where(mask, up, lo)
                              for mask in itertools.product((False, True), repeat=b - a)])
    vertices = np.array([np.concatenate(v) for v in itertools.product(*per_block)])
    assert len(vertices) == 4 * 1 * 2 * 3 * 3 * 4 * 2 * 4 and s.contains(vertices)
    g = np.random.default_rng(3)
    for c in [np.zeros(s.dim), np.ones(s.dim), *g.normal(size=(5, s.dim)),
              np.where(g.random(s.dim) < 0.5, 0.0, g.normal(size=s.dim))]:
        assert s.linear_min(c) == pytest.approx((vertices @ c).min(), abs=1e-12)
    with pytest.raises(DimensionError):
        s.linear_min(np.ones(s.dim + 1))


def test_non_finite_points_rejected():
    geom = euclid_geom(Box(np.zeros(2), np.ones(2)))
    with pytest.raises(DomainError):
        bregman_divergence(geom, [np.nan, 0.0], [0.0, 0.0])
    with pytest.raises(DomainError):
        geom.feasible_set.project([np.inf, 0.0])


# -- batched membership -------------------------------------------------------

def _mixed_set():
    return ProductSet([Simplex(2), Simplex(3), Box([-1.0, 0.0], [1.0, 2.0]), Simplex(3)])


def test_contains_accepts_a_batch_of_rows():
    s = _mixed_set()
    rows = s.sample(np.random.default_rng(5), 6)
    assert s.contains(rows)
    assert s.contains(rows.reshape(2, 3, s.dim))
    assert all(s.contains(r) for r in rows)


@pytest.mark.parametrize("row", [0, 3, 5])
@pytest.mark.parametrize("breach", ["negative entry", "row sum", "box bound"])
def test_contains_rejects_a_batch_with_one_bad_row(row, breach):
    s = _mixed_set()
    tol = 1e-9
    rows = s.sample(np.random.default_rng(6), 6)
    bad = rows.copy()
    if breach == "negative entry":
        # move the mass of entry 2 onto entry 3, then push entry 2 to -2 tol
        bad[row, 3] += bad[row, 2] + 2 * tol
        bad[row, 2] = -2 * tol
    elif breach == "row sum":
        bad[row, 2] += 2 * tol
    else:
        bad[row, 5] = 1.0 + 2 * tol
    assert s.contains(rows, tol=tol)
    assert not s.contains(bad, tol=tol)
    assert not s.contains(bad[row], tol=tol)
    assert s.contains(np.delete(bad, row, axis=0), tol=tol)


def test_contains_checks_the_last_axis_and_finiteness():
    s = _mixed_set()
    for shape in [(s.dim + 1,), (3, s.dim - 1), (s.dim, 1), ()]:
        with pytest.raises(DimensionError):
            s.contains(np.zeros(shape))
    rows = s.sample(np.random.default_rng(7), 3)
    rows[1, 4] = np.nan
    with pytest.raises(DomainError):
        s.contains(rows)


def test_contains_single_point_behaviour_unchanged():
    s = Simplex(3)
    assert s.contains([0.2, 0.3, 0.5])
    assert s.contains([0.2, 0.3, 0.5 + 5e-10])
    assert not s.contains([0.2, 0.3, 0.5 + 2e-9])
    assert not s.contains([-2e-9, 0.5, 0.5 + 2e-9])
    assert s.contains([-2e-9, 0.5, 0.5 + 2e-9], tol=1e-8)
    b = Box([0.0, -1.0], [1.0, 1.0])
    assert b.contains([1.0, -1.0]) and not b.contains([1.0 + 2e-9, 0.0])
    with pytest.raises(DomainError):
        s.contains([np.inf, 0.0, 0.0])
    with pytest.raises(DimensionError):
        s.contains([0.5, 0.5])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 9])
@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_simplex_row_sums_are_checked_to_the_tolerance(d, blocks, sign):
    # block sums are in-order adds of column views, so their order differs
    # from numpy's sum at some widths: each width must still reject a row-sum
    # breach of 2 tol and accept one of tol / 2, in the last block
    s = Simplex(d) if blocks == 1 else ProductSet([Simplex(d)] * blocks)
    tol = 1e-9
    rows = s.sample(np.random.default_rng(d), 5)
    a = (blocks - 1) * d
    top = a + rows[:, a:].argmax(axis=1)  # the largest entry stays >= 0
    for shift, ok in ((2 * tol, False), (tol / 2, True)):
        moved = rows.copy()
        moved[np.arange(5), top] += sign * shift
        assert [s.contains(p, tol) for p in moved] == [ok] * 5
        assert s.contains(moved, tol) == ok
        assert s.contains(moved.reshape(5, 1, s.dim), tol) == ok
        one = rows.copy()
        one[3] = moved[3]
        assert s.contains(one, tol) == ok


# -- grouped sampling and membership against the block-by-block references ---

def _sample_per_block(s, rng, n):
    # the block-by-block draw that one generator call per group must
    # reproduce bit for bit, stream position included
    return np.hstack([rng.dirichlet(np.ones(b - a), size=n) if lo is None
                      else rng.uniform(lo, up, size=(n, b - a))
                      for a, b, lo, up in blocks(s)])


def _contains_reference(s, p, tol=1e-9):
    # the membership test before simplex groups ran on a 3-D view
    v = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(v)):
        raise DomainError("point contains non-finite entries")
    v = v.reshape(-1, s.dim)
    for g in s._groups:
        if g[0] == "simplex":
            _, a, b, d, nb = g
            V = v[:, a:b].reshape(-1, d)
            if not (np.all(V >= -tol) and np.all(np.abs(V.sum(axis=1) - 1.0) <= tol)):
                return False
        else:
            _, a, b, _, _, lo, up = g
            w = v[:, a:b]
            if not (np.all(w >= lo - tol) and np.all(w <= up + tol)):
                return False
    return True


_widths = st.integers(1, 4)
# factors of a random mixed set: simplices, boxes on one interval (width 0
# gives a degenerate lo == up box), boxes with per-coordinate bounds; equal
# neighbours merge into one group, and boxes on different intervals merge
# into a group with per-coordinate bounds
_factor = st.one_of(
    st.tuples(st.just("simplex"), _widths),
    st.tuples(st.just("interval"), _widths, st.floats(-3, 3), st.sampled_from([0.0, 0.5, 2.0])),
    _widths.flatmap(lambda d: st.tuples(
        st.just("coords"), st.lists(st.floats(-3, 3), min_size=d, max_size=d),
        st.lists(st.floats(0, 2), min_size=d, max_size=d))),
)


def _factor_set(spec):
    kind = spec[0]
    if kind == "simplex":
        return Simplex(spec[1])
    if kind == "interval":
        _, d, lo, width = spec
        return Box(np.full(d, lo), np.full(d, lo + width))
    _, lo, width = spec
    return Box(lo, np.add(lo, width))


_mixed_sets = st.lists(_factor, min_size=1, max_size=8).map(
    lambda specs: ProductSet([_factor_set(f) for f in specs]))


@given(_mixed_sets, st.sampled_from([0, 1, 2, 7, 64]), st.integers(0, 2 ** 32 - 1))
@example(ProductSet([Box([0.0, 0.0], [1.0, 1.0]), Box([0.0, 0.0], [1.0, 1.0]),
                     Box([2.0], [2.0]), Simplex(1), Simplex(3), Simplex(3),
                     Box([-1.0, 0.5], [1.0, 0.5])]), 7, 0)
@settings(max_examples=150, deadline=None)
def test_sample_is_bitwise_the_block_by_block_draw(s, n, seed):
    r_ref, r_new = np.random.default_rng(seed), np.random.default_rng(seed)
    ref, rows = _sample_per_block(s, r_ref, n), s.sample(r_new, n)
    assert rows.shape == ref.shape == (n, s.dim) and rows.dtype == ref.dtype
    assert_same_bits(rows, ref)
    assert r_new.random() == r_ref.random()  # the same draws were consumed
    assert s.contains(rows)


@given(_mixed_sets, st.integers(1, 6), st.sampled_from([1e-9, 1e-6]),
       st.sampled_from([None, None, np.nan, np.inf, -np.inf]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_contains_agrees_with_the_reference_near_the_boundary(s, r, tol, bad, seed):
    g = np.random.default_rng(seed)
    # projections land on faces: box entries at their bounds, simplex
    # entries at 0; then a few entries move by +-2 tol or +-tol / 2
    rows = np.array([s.project(x) for x in g.normal(scale=3.0, size=(r, s.dim))])
    step = g.choice([-2.0, -0.5, 0.5, 2.0], size=rows.shape) * tol
    rows += np.where(g.random(rows.shape) < 0.5 / s.dim, step, 0.0)
    if bad is not None:
        rows[g.integers(r), g.integers(s.dim)] = bad
    for batch in (rows, rows.reshape(1, r, s.dim)):
        if bad is not None:
            with pytest.raises(DomainError):
                _contains_reference(s, batch, tol)
            with pytest.raises(DomainError):
                s.contains(batch, tol)
        else:
            assert s.contains(batch, tol) == _contains_reference(s, batch, tol)
    for empty in (np.empty((0, s.dim)), np.empty((2, 0, s.dim))):
        assert s.contains(empty, tol) and _contains_reference(s, empty, tol)

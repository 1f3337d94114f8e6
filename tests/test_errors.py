"""The scalar-argument predicates and the boundary table of every entry point
that checks an integer or real argument with them.

Each row of ``ARGS`` names one argument of one entry point: what it must be,
a call that passes it, a valid value, and the error class the entry point
raises for a value of the wrong type or out of range. Every row is called
with the values a real or an integer argument must refuse, and once more
with the numpy scalar of its valid value, which must be accepted.
"""

from dataclasses import replace

import numpy as np
import pytest

from saddleslide import (
    MATCHING_PENNIES,
    SQUARED_EUCLIDEAN,
    Box,
    ConfigurationError,
    GeometrySpec,
    ParameterError,
    PenaltyCoefficients,
    Simplex,
    SlidingSchedule,
    VIProblem,
    build_topology,
    certify_inexact_oracle,
    deterministic_schedule,
    make_l1_saddle,
    make_matrix_game,
    make_stochastic_oracle,
    operator_bound_L0,
    penalty_coefficients,
    pick_N,
    random_l1_saddle,
    random_matrix_game,
    stochastic_schedule,
)
from saddleslide.errors import is_int, is_real

GAME = make_matrix_game([MATCHING_PENNIES.copy(), MATCHING_PENNIES.copy()])
PATH2 = build_topology("path", 2)
BOX = Box(np.zeros(2), np.ones(2))


def vi_problem(**kw):
    args = dict(set_geometry=GeometrySpec(SQUARED_EUCLIDEAN, BOX), grad_G=np.zeros_like,
                L=1.0, H=np.zeros_like, M=1.0, delta=0.0)
    return VIProblem(**{**args, **kw})


def schedule(**kw):
    return SlidingSchedule(**{**dict(L=1.0, M=1.0, T=np.array([1, 2])), **kw}).validate()


def det_schedule(L=1.0, M=1.0, N=3):
    return deterministic_schedule(L, M, N)


def sto_schedule(L=1.0, M=1.0, sigma=0.1, omega_sq=1.0, N=3):
    return stochastic_schedule(L, M, sigma, omega_sq, N)


def l1(**kw):
    args = dict(b_list=[np.ones(2)], c_list=[np.zeros(2)], C_list=[np.eye(2)],
                box_radius=1.0)
    return make_l1_saddle(**{**args, **kw})


def certify(M=2.0, delta=0.0, triples=5, seed=0):
    return certify_inexact_oracle(np.zeros_like, BOX, M, delta, triples, seed)


def noise(sigma=0.1, dim=2, seed=0):
    return make_stochastic_oracle(np.zeros_like, "uniform", sigma, dim, seed)


def picked_N(L=1.0, omega_sq=1.0, target=0.1):
    return pick_N(L, omega_sq, target)


# "<entry point>.<argument>": (what it must be, call(value), valid value,
# error class). "real?" and "int?" also take None, which is not tried.
ARGS = {
    "Simplex.dim": ("int", lambda v: Simplex(v), 3, ParameterError),
    **{f"VIProblem.{a}": ("real", lambda v, a=a: vi_problem(**{a: v}), 1.0, ParameterError)
       for a in ("L", "M", "delta")},
    **{f"SlidingSchedule.validate.{a}": ("real", lambda v, a=a: schedule(**{a: v}), 1.0,
                                         ConfigurationError)
       for a in ("L", "M")},
    **{f"deterministic_schedule.{a}": (kind, lambda v, a=a: det_schedule(**{a: v}), ok,
                                       ParameterError)
       for a, kind, ok in (("L", "real", 1.0), ("M", "real", 1.0), ("N", "int", 3))},
    **{f"stochastic_schedule.{a}": (kind, lambda v, a=a: sto_schedule(**{a: v}), ok,
                                    ParameterError)
       for a, kind, ok in (("L", "real", 1.0), ("M", "real", 1.0), ("sigma", "real", 0.1),
                           ("omega_sq", "real", 1.0), ("N", "int", 3))},
    "build_topology.m": ("int", lambda v: build_topology("ring", v), 4, ParameterError),
    "build_topology.p": ("real?", lambda v: build_topology("erdos_renyi", 4, p=v, seed=0),
                         0.5, ParameterError),
    "build_topology.seed": ("int?", lambda v: build_topology("erdos_renyi", 4, p=0.5, seed=v),
                            0, ParameterError),
    "StackedSPP.m": ("int", lambda v: replace(GAME, m=v), 2, ParameterError),
    **{f"PenaltyCoefficients.{a}": (
        "real", lambda v, a=a: PenaltyCoefficients(**{**dict(
            R_alpha_sq=1.0, R_beta_sq=1.0, epsilon=0.1), a: v}), 0.1, ParameterError)
       for a in ("R_alpha_sq", "R_beta_sq", "epsilon")},
    "penalty_coefficients.epsilon": ("real", lambda v: penalty_coefficients(GAME, PATH2, v),
                                     0.1, ParameterError),
    **{f"penalty_coefficients.{a}": (
        "real", lambda v, a=a: penalty_coefficients(replace(GAME, **{a: v}), PATH2, 0.1),
        1.0, ParameterError)
       for a in ("subgrad_bound_x", "subgrad_bound_y")},
    "make_l1_saddle.box_radius": ("real", lambda v: l1(box_radius=v), 1.0, ParameterError),
    **{f"{f.__name__}.{a}": ("int", lambda v, a=a, f=f: f(**{**dict(m=2, d_x=2, d_y=3, seed=0),
                                                             a: v}), 2, ParameterError)
       for f in (random_matrix_game, random_l1_saddle) for a in ("m", "d_x", "d_y", "seed")},
    **{f"operator_bound_L0.{a}": (
        "int", lambda v, a=a: operator_bound_L0(GAME, **{**dict(samples=10, seed=0), a: v}), 10,
        ParameterError)
       for a in ("samples", "seed")},
    **{f"certify_inexact_oracle.{a}": (kind, lambda v, a=a: certify(**{a: v}), ok,
                                       ParameterError)
       for a, kind, ok in (("M", "real", 2.0), ("delta", "real", 0.0), ("triples", "int", 5),
                           ("seed", "int", 0))},
    **{f"make_stochastic_oracle.{a}": (kind, lambda v, a=a: noise(**{a: v}), ok,
                                       ParameterError)
       for a, kind, ok in (("sigma", "real", 0.1), ("dim", "int", 2), ("seed", "int", 0))},
    **{f"pick_N.{a}": ("real", lambda v, a=a: picked_N(**{a: v}), 1.0, cls)
       for a, cls in (("L", ParameterError), ("omega_sq", ParameterError),
                      ("target", ConfigurationError))},
}

# values every real argument refuses, and every integer one; all integer
# arguments here must be >= 0 or >= 1
BAD_REALS = {"true": True, "str": "1", "none": None, "nan": np.nan, "inf": np.inf,
             "int-1e400": 10 ** 400}
BAD_INTS = {"true": True, "float": 1.5, "str": "1", "negative": -1, "none": None}


def bad_cases():
    for name, (kind, call, _, cls) in ARGS.items():
        bad = BAD_REALS if kind.startswith("real") else BAD_INTS
        for label, v in bad.items():
            if not (v is None and kind.endswith("?")):
                yield pytest.param(call, v, cls, id=f"{name}-{label}")


@pytest.mark.parametrize("call,value,error", bad_cases())
def test_entry_point_refuses_a_bad_scalar_with_its_class(call, value, error):
    with pytest.raises(error) as exc_info:
        call(value)
    assert type(exc_info.value) is error
    # the message ends with the value's repr
    assert str(exc_info.value).endswith(repr(value))


@pytest.mark.parametrize("name", sorted(ARGS))
def test_numpy_scalars_are_accepted_where_python_ones_are(name):
    kind, call, valid, _ = ARGS[name]
    call(valid)
    call(np.int64(valid) if kind.startswith("int") else np.float64(valid))


def test_numpy_arguments_share_the_cached_network():
    assert build_topology("ring", np.int64(4)) is build_topology("ring", 4)
    assert (build_topology("erdos_renyi", np.int64(5), p=np.float64(0.5), seed=np.int64(1))
            is build_topology("erdos_renyi", 5, p=0.5, seed=1))


@pytest.mark.parametrize("value,integer,real", [
    (3, True, True), (np.int64(3), True, True), (np.uint8(3), True, True),
    (-2, True, True), (10 ** 400, True, False), (0.5, False, True),
    (np.float64(0.5), False, True), (np.float32(0.5), False, True),
    (True, False, False), (np.bool_(True), False, False), (np.nan, False, False),
    (-np.inf, False, False), (np.float32(np.inf), False, False), ("1", False, False),
    (None, False, False), (1 + 0j, False, False), (np.array(1.0), False, False)])
def test_predicates(value, integer, real):
    assert is_int(value) is integer
    assert is_real(value) is real

"""The library names that the benchmark in ``perfbench/`` patches or reads.

``perfbench/tracer.py`` swaps 22 module and class attributes for timing
wrappers in ``--trace 1`` mode, and ``perfbench/run.py`` reads the snapshot
lists of ``harness.RunTrace`` and the ``linear_H`` field of ``StackedSPP``. A rename
or a method moved to another class breaks the benchmark without failing any
library test; these tests fail instead. So does a layer the library stops
calling through its patched name, whose per-layer metric would read 0. Both the tracer's ``penalty.H``
and the self-check's fault injection patch the class method
``StackedSPP.H``, so every H call of a solve must go through it.

The tracer still patches ``harness.smps_run``, a name from the time the
stochastic variant had its own entry point. It is now ``mps_run`` on a
problem whose H is noisy, and ``harness.smps_run`` is kept as an alias of
``harness.mps_run``, outside the package exports, until the tracer moves off
it (ROADMAP item 1).
"""

import dataclasses
import importlib
from pathlib import Path

import pytest

import saddleslide
from saddleslide import (
    MATCHING_PENNIES,
    ProductSet,
    RunConfig,
    StackedSPP,
    build_penalized_vi,
    build_topology,
    deterministic_schedule,
    make_matrix_game,
    make_stochastic_oracle,
    mps_run,
    omega_sq_bound,
    penalty_coefficients,
    random_l1_saddle,
    random_matrix_game,
    run_experiment,
    stochastic_schedule,
)
from saddleslide import harness, instances

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PATCHED = 22
# The tracer layers one operation of each kind passes through, `operation`
# (the root span) included: 18 for a deterministic solve, the noise oracle
# on top for a stochastic one, and 9 for a certificate check.
SETUP_LAYERS = {"operation", "setup", "network.topology", "instances.build",
                "instances.operator_bound", "penalty.coefficients", "penalty.build",
                "penalty.H"}
SOLVE_LAYERS = SETUP_LAYERS | {
    "penalty.grad_G", "sliding.schedule", "sliding.validate", "sliding.loop",
    "geometry.prox", "geometry.contains", "network.gossip", "harness.backfill",
    "network.consensus", "instances.gap"}
ROUTES = {
    "game-deterministic": (dict(family="matrix_game_random", d_x=2, d_y=2), SOLVE_LAYERS),
    "l1-deterministic": (dict(family="l1_saddle_random", d_x=2, d_y=2), SOLVE_LAYERS),
    "pennies-stochastic": (dict(mode="stochastic", sigma=0.1),
                           SOLVE_LAYERS | {"harness.noise"}),
    "l1-certify": (dict(family="l1_saddle_random", d_x=2, d_y=2),
                   SETUP_LAYERS | {"instances.certify"}),
}


def test_tracer_patches_every_hook_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert len(saved) == PATCHED
        assert len({(id(owner), attr) for owner, attr, _ in saved}) == PATCHED
        for owner, attr, original in saved:
            assert owner.__dict__[attr] is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, attr


@pytest.mark.parametrize("case", sorted(ROUTES))
def test_every_traced_layer_is_on_its_operations_path(monkeypatch, case):
    overrides, expected = ROUTES[case]
    cfg = RunConfig(**{"m": 4, "network_kind": "ring", "epsilon": 0.4,
                       "N_override": 2, **overrides})
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install()
    try:
        with tracer.operation(0):
            if case.endswith("certify"):
                # the benchmark's certify operation, as in perfbench/run.py
                _, spp, _, vi = harness.build_pipeline(cfg)
                instances.certify_inexact_oracle(vi.H, spp.stacked_set(), vi.M,
                                                 vi.delta, triples=20, seed=0)
            else:
                run_experiment(cfg)
    finally:
        tracer.uninstall()
    assert set(tracer.stats) == expected
    if not case.endswith("certify"):
        # only the solver validates the schedule; its builders cannot build a bad one
        assert tracer.stats["sliding.validate"][0] == 1


def test_smps_run_is_only_an_alias_of_mps_run():
    assert harness.smps_run is harness.mps_run
    assert "smps_run" not in saddleslide.__all__


def test_benchmark_reads_snapshot_lists_and_linear_H():
    trace = run_experiment(RunConfig(N_override=2)).trace
    for name in ("z_bar_snapshots", "z_snapshots", "z_under_snapshots"):
        assert getattr(trace, name) == []
    assert "linear_H" in {f.name for f in dataclasses.fields(StackedSPP)}
    # a factory that stopped filling linear_H would read 0 bytes silently
    game = random_matrix_game(3, 3, 2, seed=0)
    assert game.linear_H.shape == (game.dim, 3)
    assert random_l1_saddle(3, 2, 2, seed=0).linear_H is None


@pytest.mark.parametrize("case", ["l1-deterministic", "game-deterministic",
                                  "pennies-stochastic"])
def test_every_solve_H_call_goes_through_the_class_method(monkeypatch, case):
    calls = []
    original = StackedSPP.H

    def counting_H(self, z):
        calls.append(z.shape)
        return original(self, z)

    monkeypatch.setattr(StackedSPP, "H", counting_H)
    if case == "l1-deterministic":
        spp = random_l1_saddle(4, 2, 2, seed=0)
    elif case == "game-deterministic":
        spp = random_matrix_game(4, 3, 2, seed=0)
    else:
        spp = make_matrix_game([MATCHING_PENNIES] * 4)
    net = build_topology("ring", 4)
    coeffs = penalty_coefficients(spp, net, 0.4)
    vi = build_penalized_vi(spp, net, coeffs)
    if case == "pennies-stochastic":
        noisy = make_stochastic_oracle(vi.H, "uniform", 0.1, spp.dim, 0)
        problem = dataclasses.replace(vi, H=noisy)
        omega_sq = omega_sq_bound(vi.set_geometry, spp.center())
        schedule = stochastic_schedule(vi.L, vi.M, 0.1, omega_sq, 1)
    else:
        problem = vi
        schedule = deterministic_schedule(vi.L, vi.M, 1)
    mps_run(problem, schedule, spp.center())
    assert len(calls) == 2 * int(schedule.T.sum()) >= 2


def test_solver_checks_feasibility_once_per_outer_iteration(monkeypatch):
    # the tracer's geometry.contains layer patches the class method; the
    # solver's guard passes it z_bar_k and z_prev as one (2, dim) array
    calls = []
    original = ProductSet.contains

    def counting_contains(self, p):
        calls.append(p.shape)
        return original(self, p)

    monkeypatch.setattr(ProductSet, "contains", counting_contains)
    spp = random_l1_saddle(4, 2, 2, seed=0)
    net = build_topology("ring", 4)
    coeffs = penalty_coefficients(spp, net, 0.4)
    vi = build_penalized_vi(spp, net, coeffs)
    calls.clear()
    mps_run(vi, deterministic_schedule(vi.L, vi.M, 2), spp.center())
    assert [c for c in calls if len(c) == 2] == [(2, spp.dim)] * 2

"""Acceptance gate: seven end-to-end criteria with stated tolerances.

Each test prints one summary line on success; pytest's own PASS/FAIL status
line is the per-criterion verdict. Criteria marked with time budgets assert
them.
"""

import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from saddleslide import (
    MATCHING_PENNIES,
    RunConfig,
    VIProblem,
    build_penalized_vi,
    build_pipeline,
    build_topology,
    certify_inexact_oracle,
    consensus_violation,
    deterministic_schedule,
    emit_outputs,
    make_matrix_game,
    mps_run,
    omega_sq_bound,
    operator_bound_L0,
    penalty_coefficients,
    random_l1_saddle,
    run_experiment,
    sup_gap_skew_linear,
)

from reference_oracles import (accelerated_projected_gradient, diameter_sq,
                               make_consensus_qp, sup_gap_slsqp)

rng = np.random.default_rng(1207)


def criterion_1_runs():
    """(m, N, vi, z_bar_N, Omega^2) for each run of criterion 1."""
    for m in (1, 3):
        spp = make_matrix_game([MATCHING_PENNIES.copy() for _ in range(m)])
        net = build_topology("single" if m == 1 else "complete", m)
        coeffs = penalty_coefficients(spp, net, 0.1, spp.subgrad_bound_x,
                                      spp.subgrad_bound_y)
        vi = build_penalized_vi(spp, net, coeffs)
        # the exact bilinear oracle is 2-Lipschitz: certificate (M, delta) =
        # (2, 0); for m = 1 the smooth part vanishes and any L > 0 is valid
        vi = replace(vi, M=2.0, delta=0.0)
        if m == 1:
            vi = replace(vi, L=2.0)
        start_rng = np.random.default_rng(20 + m)
        z0 = spp.stacked_set().sample(start_rng, 1)[0]
        omega_sq = omega_sq_bound(vi.set_geometry, z0)
        for N in (8, 16, 32, 64):
            sched = deterministic_schedule(vi.L, vi.M, N)
            final = mps_run(vi, sched, z0)
            yield m, N, vi, final, omega_sq


def test_criterion_1_deterministic_rate():
    """Smooth bilinear stacked instances obey sup-gap <= 6 L Omega^2 / N^2."""
    t0 = time.perf_counter()
    checked = []
    for m, N, vi, final, omega_sq in criterion_1_runs():
        gap, _ = sup_gap_skew_linear(vi, final)
        bound = 6.0 * vi.L * omega_sq / N ** 2
        assert gap <= bound + 1e-9, (m, N, gap, bound)
        checked.append((m, N, gap, bound))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    worst = max(g / b for _, _, g, b in checked)
    print(f"criterion 1 PASS: sup-gap <= 6 L Omega^2/N^2 on {len(checked)} "
          f"runs (worst ratio {worst:.3f}, {elapsed:.1f}s)")


def test_sup_gap_bracket_is_tight_and_holds_the_slsqp_estimate():
    """The certified (upper, lower) closes to 1e-9 relative and brackets SLSQP."""
    cases = [(vi, final) for _, _, vi, final, _ in criterion_1_runs()]
    _, spp, _, vi = build_pipeline(RunConfig(family="matrix_game_random", network_kind="ring",
                                             m=8, d_x=3, d_y=2, epsilon=0.05))
    cases.append((vi, spp.stacked_set().sample(np.random.default_rng(3), 1)[0]))
    for vi, z in cases:
        upper, lower = sup_gap_skew_linear(vi, z)
        assert lower <= upper <= lower + 1e-9 * (1.0 + abs(upper)), (upper, lower)
        estimate = sup_gap_slsqp(vi, z, restarts=6, seed=0)
        assert lower - 1e-9 <= estimate <= upper + 1e-9, (lower, estimate, upper)


def test_criterion_2_delta_non_accumulation():
    """Gamma_N sum(k) = 1 exactly; injected bias delta enters the bound once."""
    t0 = time.perf_counter()
    # recurrence Gamma_k = (1 - gamma_k) Gamma_{k-1} reproduces the closed form
    G = Fraction(1)
    for k in range(2, 2001):
        G *= 1 - Fraction(2, k + 1)
        assert G == Fraction(2, k * (k + 1))
    # exact-rational weight identity at large N, including 10**6
    for N in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        gamma_N = Fraction(2, N * (N + 1))
        assert gamma_N * Fraction(N * (N + 1), 2) == 1
    # per-iteration weights gamma_k / Gamma_k sum the same way
    N = 300
    total = sum(Fraction(2, k + 1) / Fraction(2, k * (k + 1))
                for k in range(1, N + 1))
    assert Fraction(2, N * (N + 1)) * total == 1

    # empirical: bias field of magnitude a = delta / (2 diam) certifies at
    # exactly (M, delta); the true gap obeys 6 L Omega^2 / N^2 + delta
    spp = make_matrix_game([MATCHING_PENNIES.copy()])
    fset = spp.stacked_set()
    geom = spp.stacked_geometry()
    diam = float(np.sqrt(diameter_sq(fset)))
    center = fset.center()
    z0 = np.array([0.9, 0.1, 0.2, 0.8])
    omega_sq = omega_sq_bound(geom, z0)
    N = 8
    for delta in (1e-3, 1e-2):
        a = delta / (2.0 * diam)

        def biased(z, _a=a):
            # row-wise along the last axis; the norm is taken per point, so a
            # single point gets exactly the value of float(np.linalg.norm(d))
            d = z - center
            n = np.apply_along_axis(np.linalg.norm, -1, d)[..., None]
            h = spp.H(z)
            return np.where(n > 0, h + (_a / np.where(n > 0, n, 1.0)) * d, h)

        certify_inexact_oracle(biased, fset, M=2.0, delta=delta,
                               triples=2000, seed=1)
        vi_run = VIProblem(set_geometry=geom, grad_G=lambda z: np.zeros(4),
                           L=2.0, H=biased, M=2.0, delta=delta,
                           value_G=lambda z: 0.0)
        sched = deterministic_schedule(2.0, 2.0, N)
        final = mps_run(vi_run, sched, z0)
        vi_true = replace(vi_run, H=spp.H, delta=0.0)
        gap, _ = sup_gap_skew_linear(vi_true, final)
        bound = 6.0 * 2.0 * omega_sq / N ** 2 + delta * (1.0 + 1e-6)
        assert gap <= bound, (delta, gap, bound)
    elapsed = time.perf_counter() - t0
    print(f"criterion 2 PASS: Gamma_N * sum(k) = 1 exactly up to N = 1e6; "
          f"biased runs stay within bound + delta ({elapsed:.1f}s)")


def test_criterion_3_penalty_lemma():
    """Random consensus QPs: value bracket and consensus bound hold."""
    t0 = time.perf_counter()
    eps = 1e-2
    net = build_topology("ring", 4)
    for seed in range(20):
        qp = make_consensus_qp(4, 3, net, epsilon=eps, seed=seed)
        X_lin = qp.solve_penalized_exact()
        X_apg, path = accelerated_projected_gradient(
            qp.grad_U, qp.project, np.zeros((4, 3)), qp.L_U(), qp.mu,
            tol=1e-8, return_path=True)
        assert np.max(np.abs(X_apg - X_lin)) <= 1e-6, seed
        U_min = qp.U(X_lin)
        drop = qp.u_star - U_min
        assert -1e-9 <= drop <= 2.0 * eps + 1e-9, (seed, drop)
        # first iterate on the reference path that is an eps-minimizer of U
        x_tilde = next(X for X in path if qp.U(X) <= U_min + eps)
        R = float(np.sqrt(qp.R_sq))
        assert consensus_violation(net, x_tilde.ravel()) <= 2.0 * eps / R + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 3 PASS: 20 QPs, 0 <= u* - min U <= 2 eps and "
          f"||W x~|| <= 2 eps / R ({elapsed:.1f}s)")


def test_criterion_4_end_to_end_decentralized():
    """Ring-4 matching pennies at eps = 0.05: gap, consensus, round budget."""
    t0 = time.perf_counter()
    cfg = RunConfig(family="matching_pennies", m=4, network_kind="ring",
                    epsilon=0.05, mode="deterministic", seed=0)
    rep = run_experiment(cfg)
    assert rep.N == 392
    assert rep.final_gap <= 0.05, rep.final_gap
    assert rep.consensus_x <= rep.predicted_consensus_x, rep.consensus_x
    assert rep.consensus_y <= rep.predicted_consensus_y, rep.consensus_y
    assert rep.predicted_consensus_x == pytest.approx(4 * 0.05 / 2.0)
    assert rep.communication_rounds <= rep.predicted_rounds
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 4 PASS: gap {rep.final_gap:.2e} <= 0.05, consensus "
          f"({rep.consensus_x:.1e}, {rep.consensus_y:.1e}) within 4 eps / R, "
          f"{rep.communication_rounds} rounds <= {rep.predicted_rounds} "
          f"({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_5_stochastic_markov_bound(tmp_path):
    """40 noisy seeds at target p * eps; failure fraction <= p + slack;
    sigma = 0 bitwise reproduces the deterministic trace."""
    t0 = time.perf_counter()
    eps = 0.05
    base = RunConfig(family="matching_pennies", m=4, network_kind="ring",
                     epsilon=eps, mode="stochastic", sigma=0.1,
                     noise_kind="uniform", p_confidence=0.25)
    gaps = []
    for seed in range(40):
        rep = run_experiment(replace(base, seed=seed))
        gaps.append(rep.final_gap)
    frac = float(np.mean([g > eps for g in gaps]))
    assert frac <= 0.25 + 0.15, (frac, sorted(gaps)[-3:])

    det = run_experiment(RunConfig(family="matching_pennies", m=4,
                                   network_kind="ring", epsilon=eps,
                                   mode="deterministic", seed=0))
    sto0 = run_experiment(replace(base, sigma=0.0, seed=0))
    d_det = tmp_path / "det"
    d_sto = tmp_path / "sto"
    emit_outputs(det, det.trace, d_det)
    emit_outputs(sto0, sto0.trace, d_sto)
    assert (d_det / "trace.csv").read_bytes() == (d_sto / "trace.csv").read_bytes()
    assert (d_det / "summary.txt").read_bytes() == (d_sto / "summary.txt").read_bytes()
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"criterion 5 PASS: {int(frac * 40)}/40 seeds above eps "
          f"(allowed 16), max gap {max(gaps):.2e}; sigma = 0 trace is "
          f"bitwise deterministic ({elapsed:.1f}s)")


def test_criterion_6_oracle_certification():
    """Synthesized (M, delta) certificates hold on 10^4 triples per family;
    penalty gradients match central differences to 1e-6 relative."""
    t0 = time.perf_counter()
    eps = 0.05
    net = build_topology("ring", 4)
    l1 = random_l1_saddle(4, 2, 2, seed=2, box_radius=1.0)
    l1.operator_bound = operator_bound_L0(l1, samples=2000, seed=2)
    families = []
    for spp in (make_matrix_game([MATCHING_PENNIES.copy() for _ in range(4)]),
                l1):
        coeffs = penalty_coefficients(spp, net, eps,
                                      spp.subgrad_bound_x, spp.subgrad_bound_y)
        vi = build_penalized_vi(spp, net, coeffs)
        certify_inexact_oracle(vi.H, spp.stacked_set(), vi.M, vi.delta,
                               triples=10_000, seed=0)
        pts = spp.stacked_set().sample(np.random.default_rng(7), 100)
        h = 1e-6
        for z in pts:
            g = vi.grad_G(z)
            fd = np.zeros_like(z)
            for i in range(z.size):
                e = np.zeros_like(z)
                e[i] = h
                fd[i] = (vi.value_G(z + e) - vi.value_G(z - e)) / (2 * h)
            denom = max(1.0, float(np.linalg.norm(g)))
            assert float(np.linalg.norm(g - fd)) / denom <= 1e-6
        families.append(spp.meta["family"])
    elapsed = time.perf_counter() - t0
    print(f"criterion 6 PASS: families {families} certified on 10^4 triples; "
          f"grad G matches central differences on 100 points ({elapsed:.1f}s)")


def test_criterion_7_spectral_correctness():
    """Closed-form Laplacian spectra and square-root factorization residuals."""
    t0 = time.perf_counter()
    cases = []
    for m in (3, 5):
        net = build_topology("complete", m)
        assert abs(net.lambda_max - m) <= 1e-9
        assert abs(net.lambda_min_plus - m) <= 1e-9
        assert abs(net.chi - 1.0) <= 1e-9
        cases.append((f"K{m}", net))
    ring = build_topology("ring", 4)
    assert abs(ring.lambda_max - 4.0) <= 1e-9
    assert abs(ring.lambda_min_plus - 2.0) <= 1e-9
    assert abs(ring.chi - 2.0) <= 1e-9
    cases.append(("ring4", ring))
    path2 = build_topology("path", 2)
    assert abs(path2.lambda_max - 2.0) <= 1e-9
    assert abs(path2.lambda_min_plus - 2.0) <= 1e-9
    cases.append(("path2", path2))
    path3 = build_topology("path", 3)
    eigs = np.sort(np.linalg.eigvalsh(path3.W_tilde))
    assert np.max(np.abs(eigs - [0.0, 1.0, 3.0])) <= 1e-9
    assert abs(path3.chi - 3.0) <= 1e-9
    cases.append(("path3", path3))
    for name, net in cases:
        resid = float(np.linalg.norm(net.W @ net.W - net.W_tilde))
        assert resid <= 1e-8, (name, resid)
    elapsed = time.perf_counter() - t0
    print(f"criterion 7 PASS: spectra of {[n for n, _ in cases]} match closed "
          f"forms to 1e-9; sqrt residuals <= 1e-8 ({elapsed:.1f}s)")

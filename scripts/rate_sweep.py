"""Sweep the iteration budget and compare measured gaps to the rate bound.

Runs the sliding solver on a two-player matrix game with the exact bilinear
oracle (M equal to the operator's Lipschitz constant, no bias) from a fixed
off-center start, for a geometric grid of budgets N. For each N it prints the
certified upper bound on the sup-gap next to the guarantee 6 L Omega^2 / N^2;
the ratio column should stay below 1 and the gap should shrink roughly like
1/N^2.

The deterministic T_k does not depend on N, so the first N outer iterations
of a run with a larger budget are the N-iteration run, bit for bit. One
solve at the largest budget therefore gives every z_bar_N, read through the
solver's observer.

Example:
    python3 scripts/rate_sweep.py --budgets 8 16 32 64 128 --out /tmp/sweep.csv
"""

import argparse
from dataclasses import replace

import numpy as np

from saddleslide import (
    MATCHING_PENNIES,
    NetworkModel,
    PenaltyCoefficients,
    build_penalized_vi,
    deterministic_schedule,
    make_matrix_game,
    mps_run,
    omega_sq_bound,
    random_matrix_game,
    sup_gap_skew_linear,
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--budgets", type=int, nargs="+",
                    default=[8, 16, 32, 64, 128])
    ap.add_argument("--game", default="pennies",
                    choices=("pennies", "random"))
    ap.add_argument("--d", type=int, default=3,
                    help="strategy dimension for the random game")
    ap.add_argument("--instance-seed", type=int, default=0)
    ap.add_argument("--start-seed", type=int, default=11)
    ap.add_argument("--out", default=None, help="CSV file for the table")
    args = ap.parse_args(argv)
    if min(args.budgets) < 1:
        ap.error("budgets must be integers >= 1")
    return args


def build_problem(args):
    """The game's VI with the exact oracle, the start z0 and Omega^2."""
    if args.game == "pennies":
        spp = make_matrix_game([MATCHING_PENNIES.copy()])
    else:
        spp = random_matrix_game(1, args.d, args.d, seed=args.instance_seed)
    A = spp.meta["A_bar"]
    lipschitz = float(np.linalg.svd(A, compute_uv=False)[0])
    vi = build_penalized_vi(spp, NetworkModel.single_node(),
                            PenaltyCoefficients(0.0, 0.0, 0.1))
    vi = replace(vi, L=lipschitz, M=lipschitz, delta=0.0)
    z0 = spp.stacked_set().sample(np.random.default_rng(args.start_seed), 1)[0]
    return vi, z0, omega_sq_bound(vi.set_geometry, z0)


def main(argv=None) -> int:
    args = parse_args(argv)
    vi, z0, omega_sq = build_problem(args)
    budgets = sorted(args.budgets)
    z_bars = {}

    def keep(k, z_bar):
        if k in args.budgets:
            z_bars[k] = z_bar.copy()

    mps_run(vi, deterministic_schedule(vi.L, vi.M, budgets[-1]), z0, observer=keep)

    rows = []
    print(f"game={args.game}  L=M={vi.L:.6g}  omega_sq={omega_sq:.6g}")
    print(f"{'N':>6} {'gap':>12} {'bound':>12} {'ratio':>8}")
    for N in budgets:
        gap, _ = sup_gap_skew_linear(vi, z_bars[N])
        bound = 6.0 * vi.L * omega_sq / N ** 2
        rows.append((N, gap, bound))
        print(f"{N:>6} {gap:>12.4e} {bound:>12.4e} {gap / bound:>8.3f}")

    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("N,gap,bound\n")
            for N, gap, bound in rows:
                fh.write(f"{N},{repr(gap)},{repr(bound)}\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

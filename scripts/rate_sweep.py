"""Sweep the iteration budget and compare measured gaps to the rate bound.

Runs the sliding solver on a two-player matrix game with the exact bilinear
oracle (M equal to the operator's Lipschitz constant, no bias) from a fixed
off-center start, for a geometric grid of budgets N. For each N it prints the
measured sup-gap next to the guarantee 6 L Omega^2 / N^2; the ratio column
should stay below 1 and the gap should shrink roughly like 1/N^2.

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
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.game == "pennies":
        spp = make_matrix_game([MATCHING_PENNIES.copy()], 1)
    else:
        spp = random_matrix_game(1, args.d, args.d, seed=args.instance_seed)
    A = spp.meta["A_bar"]
    lipschitz = float(np.linalg.svd(A, compute_uv=False)[0])
    vi = build_penalized_vi(spp, NetworkModel.single_node(),
                            PenaltyCoefficients(0.0, 0.0, 0.1))
    vi = replace(vi, L=lipschitz, M=lipschitz, delta=0.0)
    z0 = spp.stacked_set().sample(np.random.default_rng(args.start_seed), 1)[0]
    omega_sq = omega_sq_bound(vi.set_geometry, z0)

    rows = []
    print(f"game={args.game}  L=M={lipschitz:.6g}  omega_sq={omega_sq:.6g}")
    print(f"{'N':>6} {'gap':>12} {'bound':>12} {'ratio':>8}")
    for N in sorted(args.budgets):
        sched = deterministic_schedule(vi.L, vi.M, N)
        z_bar, _ = mps_run(vi, sched, z0)
        gap = sup_gap_skew_linear(vi, z_bar, restarts=6, seed=0)
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

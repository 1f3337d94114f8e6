"""Tests of the example scripts: each ``main()`` runs on tiny arguments, and
``rate_sweep``'s default runs are pinned."""

import hashlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from saddleslide import deterministic_schedule, exact_gap_matrix_game, mps_run

from reference_oracles import sup_gap_skew_linear

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,argv,expected", [
    ("rate_sweep", ["--budgets", "8", "16"], ["N", "8", "16"]),
])
def test_script_main_runs(tmp_path, capsys, name, argv, expected):
    assert load_script(name).main([a.format(tmp=tmp_path) for a in argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    firsts = [line.split()[0] for line in lines if line.split()]
    for word in expected:
        assert word in firsts, (word, lines)


@pytest.mark.parametrize("argv", [["--budgets", "16", "4", "9", "4"],
                                  ["--game", "random", "--budgets", "7", "3"]])
def test_rate_sweep_one_solve_equals_a_solve_per_budget(tmp_path, capsys, argv):
    # the table and the CSV, byte for byte, against a separate solve per budget
    script = load_script("rate_sweep")
    out = tmp_path / "sweep.csv"
    assert script.main(argv + ["--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    args = script.parse_args(argv)
    vi, z0, omega_sq, A = script.build_problem(args)
    d_x = A.shape[1]
    table, csv = [], ["N,gap,bound"]
    for N in sorted(args.budgets):
        z_bar = mps_run(vi, deterministic_schedule(vi.L, vi.M, N), z0)
        gap = exact_gap_matrix_game(A, z_bar[:d_x], z_bar[d_x:])
        bound = 6.0 * vi.L * omega_sq / N ** 2
        table.append(f"{N:>6} {gap:>12.4e} {bound:>12.4e} {gap / bound:>8.3f}")
        csv.append(f"{N},{gap!r},{bound!r}")
    assert printed[2:-1] == table
    assert out.read_text(encoding="utf-8").splitlines() == csv


def test_rate_sweep_rejects_a_budget_below_one(capsys):
    with pytest.raises(SystemExit):
        load_script("rate_sweep").main(["--budgets", "4", "0"])


# rate_sweep at its default budgets 8, 16, 32, 64 and 128: the sha256 of the
# iterates z_bar_N, concatenated in budget order, and the printed lines.
RATE_SWEEP_PINS = {
    "pennies": (
        "4102fa98d789da0b5df13201aff3d8f94be490a2fe5740d1c60bd43fb9926d39",
        ["game=pennies  L=M=2  omega_sq=1.41455",
         "     N          gap        bound    ratio",
         "     8   1.1035e-01   2.6523e-01    0.416",
         "    16   2.9197e-02   6.6307e-02    0.440",
         "    32   7.5206e-03   1.6577e-02    0.454",
         "    64   1.9091e-03   4.1442e-03    0.461",
         "   128   4.8097e-04   1.0360e-03    0.464"]),
    "random": (
        "e4ad7696540dbe6bd3ae0010a274c682367e243f879a8837542558775849e5ed",
        ["game=random  L=M=1.72552  omega_sq=1.55143",
         "     N          gap        bound    ratio",
         "     8   3.4317e-02   2.5097e-01    0.137",
         "    16   9.4821e-03   6.2743e-02    0.151",
         "    32   2.4423e-03   1.5686e-02    0.156",
         "    64   6.1998e-04   3.9214e-03    0.158",
         "   128   1.5620e-04   9.8036e-04    0.159"]),
}


def rate_sweep_iterates(game):
    """The default sweep's game matrix, problem and z_bar_N per budget N."""
    script = load_script("rate_sweep")
    args = script.parse_args(["--game", game])
    vi, z0, _, A = script.build_problem(args)
    z_bars = {}

    def keep(k, z_bar):
        if k in args.budgets:
            z_bars[k] = z_bar.copy()

    mps_run(vi, deterministic_schedule(vi.L, vi.M, max(args.budgets)), z0, observer=keep)
    return A, vi, [z_bars[N] for N in sorted(args.budgets)]


@pytest.mark.parametrize("game", sorted(RATE_SWEEP_PINS))
def test_rate_sweep_default_runs_are_pinned(capsys, game):
    digest, lines = RATE_SWEEP_PINS[game]
    _, _, z_bars = rate_sweep_iterates(game)
    assert hashlib.sha256(b"".join(z.tobytes() for z in z_bars)).hexdigest() == digest
    assert load_script("rate_sweep").main(["--game", game]) == 0
    assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize("game", sorted(RATE_SWEEP_PINS))
def test_rate_sweep_exact_gap_meets_the_fista_reference(game):
    # one node, so G = 0 and the sup-gap is the game's closed-form gap
    A, vi, z_bars = rate_sweep_iterates(game)
    d_x = A.shape[1]
    for z in z_bars:
        upper, _ = sup_gap_skew_linear(replace(vi, value_G=lambda z: 0.0), z)
        assert abs(exact_gap_matrix_game(A, z[:d_x], z[d_x:]) - upper) <= 1e-12

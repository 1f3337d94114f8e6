"""Smoke test of the example scripts: each ``main()`` runs on tiny arguments."""

import importlib.util
from pathlib import Path

import pytest

from saddleslide import deterministic_schedule, mps_run, sup_gap_skew_linear

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
    vi, z0, omega_sq = script.build_problem(args)
    table, csv = [], ["N,gap,bound"]
    for N in sorted(args.budgets):
        z_bar, _ = mps_run(vi, deterministic_schedule(vi.L, vi.M, N), z0)
        gap, _ = sup_gap_skew_linear(vi, z_bar)
        bound = 6.0 * vi.L * omega_sq / N ** 2
        table.append(f"{N:>6} {gap:>12.4e} {bound:>12.4e} {gap / bound:>8.3f}")
        csv.append(f"{N},{gap!r},{bound!r}")
    assert printed[2:-1] == table
    assert out.read_text(encoding="utf-8").splitlines() == csv


def test_rate_sweep_rejects_a_budget_below_one(capsys):
    with pytest.raises(SystemExit):
        load_script("rate_sweep").main(["--budgets", "4", "0"])

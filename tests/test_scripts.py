"""Smoke test of the example scripts: each ``main()`` runs on tiny arguments."""

import importlib.util
from pathlib import Path

import pytest

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

"""Each demo script runs to completion and prints its headline result."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

HEADLINES = {
    "complexity_tradeoff.py":
        "  one marker application: N_P=18 (= 2*9^1), N_U=36864 (= N_P * 2^11), N_A=11",
    "fixed_point_recursion.py": "workspace: mu=11, window=330; measured eta=0.023964",
    "marker_contract.py": "workspace mu=5, window=2; per-direction eta: 0.06659, 0.04781",
    "pea_window_scaling.py": "  smallest workspace: mu=14 (2^mu = 16384), window=370",
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(HEADLINES)


@pytest.mark.parametrize("name", sorted(HEADLINES))
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert HEADLINES[name] in done.stdout.splitlines()

"""The benchmark's tracer still finds every library name it rebinds, its
layers see a traced marker evaluation, and every benchmark workload still
runs and passes its own check against the library."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# One traced evaluation of a variant on a two-direction model; prints the
# statevec.apply and pea.apply span counts beside the Tally's P.  The
# layout keeps voting's joint dimension (2 * 16^3) under the thread gate.
TRACED_EVALUATION = """
import json
import numpy as np
import tracing
import eigenmark as em
from eigenmark import marker
tracer = tracing.Tracer()
tracing.instrument(tracer)
spec = em.SpectralUnitary(dim=2, eigenphases=(0.03, 2.2), delta=1.5)
target = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)
assembly = marker.build_assembly(spec, target, em.WorkspaceLayout(mu=4, window=2),
                                 {variant})
tracer.active = True
report = marker.evaluate_marker(assembly, spec, target, n_random=1)
tracer.active = False
layers = tracer.layers()
print(json.dumps({"statevec.apply": layers.get("statevec.apply", {}).get("calls", 0),
                  "pea.apply": layers.get("pea.apply", {}).get("calls", 0),
                  "P": report.counters.n_p}))
"""


# One task of each benchmark workload at seed 1, after the same set-up a
# benchmark run makes, judged by the workload's own check.
WORKLOAD_TASKS = """
import json
import os
import workloads
passed = {}
for name, workload in workloads.WORKLOADS.items():
    wl = workload(1, os.getcwd())
    wl.prepare()
    wl.warmup()
    wl.expect()
    passed[name] = bool(wl.check(wl.tasks[0], wl.run(wl.tasks[0])))
print(json.dumps(passed))
"""


def run_traced(code: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "bench"),
                                                      env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave no cache under bench/
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, cwd=cwd)


def test_tracer_instruments_the_library():
    # bench/tracing.py wraps names such as statevec.apply (the one driver
    # of main vectors (x) sigma), fpqs.pi3_balance and voting.build_h_tensor;
    # renaming or deleting one breaks it here rather than in a benchmark run.
    done = run_traced("import tracing; tracing.instrument(tracing.Tracer())")
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("variant", ['"pea"', '"voting", nu=3', '"fixed_point", q=1'],
                         ids=["pea", "voting", "fixed_point"])
def test_traced_evaluation_times_the_driver(variant):
    # The statevec.apply layer sees the driver's calls, and every
    # estimation-operator application (each voting register's included)
    # is one pea.apply span and one P, as bench/run.py --trace 1 checks.
    done = run_traced(TRACED_EVALUATION.replace("{variant}", variant))
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["statevec.apply"] > 0
    assert seen["pea.apply"] == seen["P"] > 0


def test_every_workload_passes_its_check(tmp_path):
    # A library signature that a workload calls (build_assembly's q= and
    # nu=, selective_phase, measure_eta, ...) changing under it fails here
    # rather than in a benchmark run.  Files go to tmp_path only.
    done = run_traced(WORKLOAD_TASKS, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"calibrate": True, "recursion": True,
                                       "voting": True, "sweep": True}

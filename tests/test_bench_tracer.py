"""The benchmark's tracer still finds every library name it rebinds, and
its layers see a traced marker evaluation."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# One traced fixed-point evaluation on a two-direction model; prints the
# statevec.apply and pea.apply span counts beside the Tally's P.
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
assembly = marker.build_assembly(spec, target, em.WorkspaceLayout(mu=5, window=2),
                                 "fixed_point", q=1)
tracer.active = True
report = marker.evaluate_marker(assembly, spec, target, n_random=1)
tracer.active = False
layers = tracer.layers()
print(json.dumps({"statevec.apply": layers.get("statevec.apply", {}).get("calls", 0),
                  "pea.apply": layers.get("pea.apply", {}).get("calls", 0),
                  "P": report.counters.n_p}))
"""


def run_traced(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "bench"),
                                                      env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave no cache under bench/
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def test_tracer_instruments_the_library():
    # bench/tracing.py wraps names such as statevec.apply (the one driver
    # of main vectors (x) sigma), fpqs.pi3_balance and voting.build_h_tensor;
    # renaming or deleting one breaks it here rather than in a benchmark run.
    done = run_traced("import tracing; tracing.instrument(tracing.Tracer())")
    assert done.returncode == 0, done.stderr


def test_traced_evaluation_times_the_driver():
    # The statevec.apply layer sees the driver's calls, and every
    # estimation-operator application is one pea.apply span and one P.
    done = run_traced(TRACED_EVALUATION)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["statevec.apply"] > 0
    assert seen["pea.apply"] == seen["P"] > 0

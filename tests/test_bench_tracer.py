"""The benchmark's tracer still finds every library name it rebinds."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_tracer_instruments_the_library():
    # bench/tracing.py wraps names such as statevec.apply, fpqs.pi3_balance
    # and voting.build_h_tensor; renaming or deleting one breaks it here
    # rather than in a benchmark run.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "bench"),
                                                      env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave no cache under bench/
    done = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.instrument(tracing.Tracer())"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

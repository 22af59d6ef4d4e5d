import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import eigenmark as em
from eigenmark import statevec
from eigenmark.statevec import EXTENDED, real_dtype

try:
    from hypothesis import settings
except ImportError:  # test_properties.py then skips itself (pytest.importorskip)
    pass
else:
    # Every run draws the same examples, with no example database and no
    # per-example deadline (timings on a shared host vary), so runs repeat.
    settings.register_profile("repeatable", derandomize=True, database=None, deadline=None)
    settings.load_profile("repeatable")


def rotation_block(eta: float) -> np.ndarray:
    """2x2 real rotation sending e0 to sqrt(1-eta^2) e0 + eta e1."""
    th = np.arcsin(eta)
    return np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)


def assert_tables_built_once_under_threads(monkeypatch, build, x):
    """Four threads apply one fresh build() to x at once: its phase_tables
    lock lets one build the dtype's table and the others wait for it, and
    every output equals a serial application of another build().  The
    counting statevec.real_dtype sleeps and the switch interval is short,
    which widens the window a second build could start in."""
    want = build().apply_to(x)
    builds = []

    def counting(dtype):
        builds.append(np.dtype(dtype))
        time.sleep(0.05)
        return real_dtype(dtype)

    monkeypatch.setattr(statevec, "real_dtype", counting)
    op = build()
    start = threading.Barrier(4, timeout=30)

    def run(_):
        start.wait()
        return op.apply_to(x)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            outs = list(pool.map(run, range(4)))
    finally:
        sys.setswitchinterval(interval)
    assert builds == [x.dtype]
    assert all(np.array_equal(out, want) for out in outs)


@pytest.fixture(scope="session")
def calib_04():
    """Calibration at the headline configuration (delta=0.4, b=0.05)."""
    return em.calibrate_workspace(0.4, 0.05)


@pytest.fixture(scope="session")
def setup_04(calib_04):
    """Worst-case model, layout, estimation operator, and measured etas at
    the calibrated (delta=0.4, b=0.05) configuration."""
    spec, target = em.verification_model(0.4, 0.05, calib_04.lam_marked,
                                         calib_04.lam_unmarked)
    layout = calib_04.layout()
    pea_op = em.build_pea(em.build_shifted(spec, target), layout)
    report = em.measure_eta(pea_op, spec, target, layout, dtype=EXTENDED)
    return {
        "calib": calib_04,
        "spec": spec,
        "target": target,
        "layout": layout,
        "pea_op": pea_op,
        "eta_report": report,
    }


@pytest.fixture(scope="session")
def small_model():
    """Tiny model with a nontrivial eigenbasis for dense-oracle tests."""
    rng = np.random.default_rng(5)
    basis = em.haar_unitary(rng, 3)
    spec = em.SpectralUnitary(dim=3, eigenphases=(0.02, 1.8, -2.1),
                              eigenbasis=basis, delta=1.5)
    target = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)
    layout = em.WorkspaceLayout(mu=3, window=1)
    return spec, target, layout

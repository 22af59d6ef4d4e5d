import numpy as np
import pytest

import eigenmark as em
from eigenmark.statevec import EXTENDED


def haar_unitary(rng, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotation_block(eta: float) -> np.ndarray:
    """2x2 real rotation sending e0 to sqrt(1-eta^2) e0 + eta e1."""
    th = np.arcsin(eta)
    return np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)


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
    basis = haar_unitary(rng, 3)
    spec = em.SpectralUnitary(dim=3, eigenphases=(0.02, 1.8, -2.1),
                              eigenbasis=basis, delta=1.5)
    target = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)
    layout = em.WorkspaceLayout(mu=3, window=1)
    return spec, target, layout

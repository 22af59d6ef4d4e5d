import dataclasses

import numpy as np
import pytest

import eigenmark as em
from eigenmark import audit, cli
from eigenmark.spectral import circle_distance, haar_unitary, wrap_angle


def test_wrap_angle_reduces_to_half_open_interval():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    assert wrap_angle(2 * np.pi + 0.25) == pytest.approx(0.25, abs=1e-12)
    np.testing.assert_allclose(wrap_angle(np.array([0.0, -0.1])), [0.0, -0.1], atol=1e-15)


def test_circle_distance_wraps():
    assert circle_distance(3.0, -3.0) == pytest.approx(2 * np.pi - 6.0, abs=1e-12)
    assert circle_distance(0.1, 0.4) == pytest.approx(0.3, abs=1e-12)


def test_shifted_exact_estimate_gives_zero_lambda():
    spec = em.SpectralUnitary(dim=2, eigenphases=(0.3, 2.5), delta=1.5)
    target = em.MarkTarget.resolve(spec, psi_prime=0.3, phi=np.pi, b=0.05)
    assert target.lambdas[0] == 0.0
    assert target.marked_indices == (0,)


def test_shifted_diag_example():
    spec = em.SpectralUnitary(dim=2, eigenphases=(0.0, np.pi), delta=2.5)
    target = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)
    s = em.dense_materialize(em.build_shifted(spec, target))
    np.testing.assert_allclose(s, np.diag([1.0, -1.0]), atol=1e-12)


def test_validation_accepts_close_estimate():
    # psi=0.30, psi'=0.31, delta=0.5, b=0.05: |lambda|=0.01 < b*delta=0.025
    spec = em.SpectralUnitary(dim=2, eigenphases=(0.30, 1.2), delta=0.5)
    target = em.MarkTarget.resolve(spec, psi_prime=0.31, phi=np.pi, b=0.05)
    assert abs(target.lambdas[0]) == pytest.approx(0.01, abs=1e-12)
    assert abs(target.lambdas[0]) < 0.05 * 0.5
    assert target.theta_min == pytest.approx(0.25)


def test_validation_rejects_estimate_outside_window():
    spec = em.SpectralUnitary(dim=2, eigenphases=(0.30, 1.2), delta=0.5)
    with pytest.raises(ValueError, match="no eigenphase within"):
        em.MarkTarget.resolve(spec, psi_prime=0.30 + 0.06, phi=np.pi, b=0.05)


def test_validation_rejects_gap_violation_with_offending_phase():
    spec = em.SpectralUnitary(dim=2, eigenphases=(0.0, 0.3), delta=0.5)
    with pytest.raises(ValueError, match="0.3"):
        em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("index", [0, 1], ids=["marked", "unmarked"])
def test_non_finite_eigenphase_is_rejected_by_index(bad, index):
    # A NaN would drop out of the worst residual's max, and an infinity has
    # no angle to reduce to.
    phases = [0.01, 2.0]
    phases[index] = bad
    with pytest.raises(ValueError, match=f"eigenphase {index} must be finite"):
        em.SpectralUnitary(dim=2, eigenphases=tuple(phases), delta=1.5)


@pytest.mark.parametrize("name, kwargs", [
    ("marker angle phi", {"psi_prime": 0.0, "phi": np.nan}),
    ("marker angle phi", {"psi_prime": 0.0, "phi": np.inf}),
    ("estimate psi_prime", {"psi_prime": np.nan, "phi": np.pi}),
], ids=["phi_nan", "phi_inf", "psi_prime_nan"])
def test_non_finite_target_angle_is_rejected(name, kwargs):
    spec = em.SpectralUnitary(dim=2, eigenphases=(0.01, 2.0), delta=1.5)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        em.MarkTarget.resolve(spec, b=0.05, **kwargs)


def test_build_shifted_rejects_mismatched_target():
    spec_a = em.SpectralUnitary(dim=2, eigenphases=(0.0, 2.0), delta=1.5)
    spec_b = em.SpectralUnitary(dim=2, eigenphases=(0.0, 2.2), delta=1.5)
    target = em.MarkTarget.resolve(spec_a, psi_prime=0.0, phi=np.pi, b=0.05)
    with pytest.raises(ValueError, match="different spectral model"):
        em.build_shifted(spec_b, target)


def test_build_shifted_rejects_a_model_that_breaks_the_gap():
    # Same phases, wider gap: resolve rejects the model, so the builders
    # must reject it too when handed the target resolved at the narrower
    # gap, with resolve's reason.
    spec = em.SpectralUnitary(dim=2, eigenphases=(0.0, 2.0), delta=1.5)
    target = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)
    wider = dataclasses.replace(spec, delta=2.5)
    with pytest.raises(ValueError, match="violates the gap"):
        em.MarkTarget.resolve(wider, psi_prime=0.0, phi=np.pi, b=0.05)
    with pytest.raises(ValueError, match="different spectral model.*violates the gap"):
        em.build_shifted(wider, target)
    with pytest.raises(ValueError, match="different spectral model.*violates the gap"):
        em.build_assembly(wider, target, em.WorkspaceLayout(3, 1), "pea")


@pytest.mark.parametrize("index", [False, True, 0.0, np.float64(0)],
                         ids=["false", "true", "float", "numpy_float"])
def test_declared_marked_index_must_be_an_integer(index):
    # A bool or a float used to pass: False and 0.0 marked index 0, and
    # True indexed the phases as a boolean mask.  As for dim, a count is
    # never read from a flag or a float.
    spec = em.SpectralUnitary(dim=2, eigenphases=(0.0, 2.0), delta=1.5)
    with pytest.raises(TypeError, match="declared marked index must be an integer"):
        em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05, marked_index=index)
    for whole in (0, np.int64(0)):
        target = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05,
                                       marked_index=whole)
        assert target.marked_indices == (0,)


def test_ideal_marker_examples():
    spec = em.SpectralUnitary(dim=2, eigenphases=(0.0, 2.0), delta=1.5)
    t0 = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=0.0, b=0.05)
    np.testing.assert_allclose(em.dense_materialize(em.ideal_marker(spec, t0)),
                               np.eye(2), atol=1e-15)
    tpi = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)
    np.testing.assert_allclose(em.dense_materialize(em.ideal_marker(spec, tpi)),
                               np.diag([-1.0, 1.0]), atol=1e-12)


def test_ideal_marker_degenerate_eigenspace():
    spec = em.SpectralUnitary(dim=4, eigenphases=(0.0, 0.0, 2.0, -2.0), delta=1.5)
    target = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi / 2, b=0.05)
    assert target.marked_indices == (0, 1)
    got = em.dense_materialize(em.ideal_marker(spec, target))
    np.testing.assert_allclose(got, np.diag([1j, 1j, 1.0, 1.0]), atol=1e-12)


def test_ideal_marker_rejects_mismatched_target():
    # The phases swapped: the target marks direction 0, which in this model
    # is the unmarked phase 2.0, so the marker would put -1 on it.
    target = em.MarkTarget.resolve(em.SpectralUnitary(dim=2, eigenphases=(0.01, 2.0), delta=1.5),
                                   psi_prime=0.0, phi=np.pi, b=0.05)
    swapped = em.SpectralUnitary(dim=2, eigenphases=(2.0, 0.01), delta=1.5)
    with pytest.raises(ValueError, match="different spectral model"):
        em.ideal_marker(swapped, target)


def test_marker_phase_composition_law(small_model):
    spec, _target, _layout = small_model
    t1 = em.MarkTarget.resolve(spec, 0.0, 0.4, b=0.05)
    t2 = em.MarkTarget.resolve(spec, 0.0, 1.9, b=0.05)
    t12 = em.MarkTarget.resolve(spec, 0.0, 2.3, b=0.05)
    m1 = em.dense_materialize(em.ideal_marker(spec, t1))
    m2 = em.dense_materialize(em.ideal_marker(spec, t2))
    m12 = em.dense_materialize(em.ideal_marker(spec, t12))
    assert np.abs(m1 @ m2 - m12).max() <= 1e-12


def test_marker_diagonal_in_eigenbasis(small_model):
    spec, target, _layout = small_model
    m = em.dense_materialize(em.ideal_marker(spec, target))
    d = spec.eigenbasis.conj().T @ m @ spec.eigenbasis
    assert np.abs(d - np.diag(np.diag(d))).max() <= 1e-12


def test_shifted_commutes_with_unitary_up_to_dim_64():
    rng = np.random.default_rng(7)
    for dim in (2, 8, 64):
        phases = [0.01] + list(np.linspace(1.0, 2.8, dim - 1))
        spec = em.SpectralUnitary(dim=dim, eigenphases=tuple(phases),
                                  eigenbasis=haar_unitary(rng, dim), delta=0.9)
        target = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)
        result = audit.check_spectral_shift_commutes(spec, target)
        assert result.ok, result.detail


def test_delta_range_enforced():
    with pytest.raises(ValueError, match="delta"):
        em.SpectralUnitary(dim=1, eigenphases=(0.0,), delta=0.0)
    with pytest.raises(ValueError, match="delta"):
        em.SpectralUnitary(dim=1, eigenphases=(0.0,), delta=3.5)


@pytest.mark.parametrize("dim", [2.0, True], ids=["float", "bool"])
def test_dim_must_be_an_integer(dim):
    # As WorkspaceLayout reads mu: a float or a bool fails at construction,
    # not later inside numpy.
    with pytest.raises(TypeError, match="dim must be an integer"):
        em.SpectralUnitary(dim=dim, eigenphases=(0.01, 2.0), delta=1.5)


_ROWS = r'must be "computational" or n rows of n \[re, im\] pairs'


@pytest.mark.parametrize("basis, message", [
    ("x", _ROWS),
    ([[1]], r"\['eigenbasis'\]\[0\]\[0\] must be a list"),
    ([[[1.0, 0.0], [0.0, 0.0]]], _ROWS),
    ([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]], _ROWS),
    ([[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]],
     r"\['eigenbasis'\]\[0\]\[0\] must be a \[re, im\] pair"),
], ids=["text", "scalar_entries", "one_row", "short_row", "triples"])
def test_load_model_rejects_a_misshapen_basis(basis, message):
    # A spectral model is loaded through the CLI's model key table; a basis
    # that is not dim rows of dim [re, im] pairs fails there, naming the
    # eigenbasis, before any SpectralUnitary is built.
    doc = {
        "dim": 2,
        "eigenphases": [0.01, 2.0],
        "eigenbasis": basis,
        "delta": 1.5,
        "target": {"psi_prime": 0.0, "b": 0.05, "phi": np.pi},
    }
    with pytest.raises(cli.ConfigError, match=message):
        cli._read(doc, cli.MODEL_KEYS, "model")

import numpy as np
import pytest

import eigenmark as em
from eigenmark import pea
from eigenmark.spectral import wrap_angle


def brute_window_mass(lam: float, mu: int, window: int) -> float:
    """Independent oracle: explicit geometric sum over the k register."""
    wdim = 2 ** mu
    k = np.arange(wdim)
    mass = 0.0
    zs = em.WorkspaceLayout(mu, window).window_indices()
    for z in zs:
        amp = np.exp(1j * k * (lam - 2 * np.pi * z / wdim)).sum() / wdim
        mass += abs(amp) ** 2
    return mass


def two_phase_model(lam_marked, lam_unmarked, phi=np.pi):
    gap = abs(wrap_angle(lam_unmarked - lam_marked)) * (1 - 1e-9)
    spec = em.SpectralUnitary(dim=2, eigenphases=(lam_marked, lam_unmarked), delta=gap)
    b = min(0.25, max(0.05, 1.5 * abs(lam_marked) / gap))
    target = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=phi, b=b)
    return spec, target


def test_layout_window_partition():
    layout = em.WorkspaceLayout(mu=4, window=3)
    z = layout.z_window()
    assert set(z.member_indices) == {0, 1, 2, 3, 13, 14, 15}
    assert set(z.member_indices) | set(z.complement().member_indices) == set(range(16))
    with pytest.raises(ValueError, match="window"):
        em.WorkspaceLayout(mu=4, window=8)


def test_eigenphase_on_grid_stays_put():
    # lam = 0 for the marked direction: P(|psi>|0>) = |psi>|0> exactly
    spec, target = two_phase_model(0.0, np.pi * 5 / 8)
    layout = em.WorkspaceLayout(mu=1, window=0)
    op = em.build_pea(em.build_shifted(spec, target), layout)
    state = em.product_state(spec.basis_column(0), layout.sigma_state())
    out = em.apply(op, state, "joint")
    assert np.abs(out.amplitudes - state.amplitudes).max() <= 1e-12


def test_mu1_pi_lands_on_one():
    # H then phase -1 on |1> then H sends |0> to |1>: the lam = pi
    # eigendirection ends exactly in workspace |1>.
    spec, target = two_phase_model(0.0, np.pi)
    layout = em.WorkspaceLayout(mu=1, window=0)
    op = em.build_pea(em.build_shifted(spec, target), layout)
    state = em.product_state(spec.basis_column(1), layout.sigma_state())
    out = em.apply(op, state, "joint")
    hand = np.array([[1, 1], [1, -1]]) / 2.0 @ np.array([1, -1.0])  # H.diag(1,-1).H |0>
    np.testing.assert_allclose(out.tensor()[1], hand, atol=1e-12)
    report = em.measure_eta(op, spec, target, layout)
    assert report.eta_unmarked <= 1e-15
    assert report.eta <= 1e-15


def test_mu3_grid_phase_lands_on_z5():
    spec, target = two_phase_model(0.0, 2 * np.pi * 5 / 8)
    layout = em.WorkspaceLayout(mu=3, window=1)
    op = em.build_pea(em.build_shifted(spec, target), layout)
    state = em.product_state(spec.basis_column(1), layout.sigma_state())
    out = em.apply(op, state, "joint")
    assert abs(abs(out.tensor()[1, 5]) - 1.0) <= 1e-12


def test_pea_cost_convention():
    spec, target = two_phase_model(0.0, np.pi)
    layout = em.WorkspaceLayout(mu=5, window=2)
    op = em.build_pea(em.build_shifted(spec, target), layout)
    tally = em.Tally()
    state = em.product_state(spec.basis_column(0), layout.sigma_state())
    em.apply(op, state, "joint", tally)
    assert tally.get("U") == 2 ** 5
    assert tally.get("P") == 1
    op.adjoint_apply_to(state.amplitudes, tally)
    assert tally.get("U") == 2 ** 6
    assert tally.get("P") == 2


def test_pea_needs_an_operator_with_eigensystem():
    shifted = em.from_matrix(np.diag(np.exp(1j * np.array([0.01, 2.0]))))
    with pytest.raises(ValueError, match="eigensystem"):
        em.build_pea(shifted, em.WorkspaceLayout(mu=3, window=1))


def test_kernel_matches_brute_force_oracle():
    rng = np.random.default_rng(11)
    for mu, window in ((2, 0), (4, 3), (6, 7)):
        for lam in rng.uniform(-np.pi, np.pi, size=4):
            got = float(pea.window_response_mass(lam, mu, window)[0])
            want = brute_window_mass(lam, mu, window)
            assert abs(got - want) <= 1e-12


def test_kernel_matches_simulation():
    layout = em.WorkspaceLayout(mu=5, window=3)
    spec, target = two_phase_model(0.003, 1.9)
    op = em.build_pea(em.build_shifted(spec, target), layout)
    for i in range(2):
        state = em.product_state(spec.basis_column(i), layout.sigma_state())
        out = em.apply(op, state, "joint")
        sim = em.subspace_amplitude(out, layout.z_window()).magnitude ** 2
        kern = float(pea.window_response_mass(target.lambdas[i], layout.mu,
                                              layout.window)[0])
        assert abs(sim - kern) <= 1e-12


def test_eta_report_shape_and_range(setup_04):
    report = setup_04["eta_report"]
    assert all(0.0 <= e.eta <= 1.0 for e in report.entries)
    assert report.eta == max(report.eta_marked, report.eta_unmarked)
    marked_flags = {e.index: e.marked for e in report.entries}
    assert marked_flags[0] and not marked_flags[1]


def test_mu8_band_eta_exceeds_working_regime():
    # At mu=8 and delta=0.4 no window reaches eta <= 2^-5: the gap is only
    # ~8 bins wide.  The honest value at offset 0.002 under the best
    # window is ~0.05, cross-checked here against both routes.
    choice = em.best_window(8, 0.4, 0.05)
    assert choice.eta > 2.0 ** -5
    kern = float(np.sqrt(1.0 - pea.window_response_mass(0.002, 8, choice.window)[0]))
    spec, target = two_phase_model(0.002, 0.2)
    layout = em.WorkspaceLayout(8, choice.window)
    op = em.build_pea(em.build_shifted(spec, target), layout)
    report = em.measure_eta(op, spec, target, layout)
    assert abs(report.eta_marked - kern) <= 1e-10
    assert kern > 2.0 ** -5


def test_calibration_vacuous_target():
    result = em.calibrate_workspace(0.4, 0.05, eta_target=1.0)
    assert (result.mu, result.window) == (1, 0)
    assert result.converged


def test_calibration_large_gap_small_mu():
    result = em.calibrate_workspace(3.0, 0.05)
    assert result.converged
    assert result.mu <= 12
    spec, target = em.verification_model(3.0, 0.05, result.lam_marked,
                                         result.lam_unmarked)
    layout = result.layout()
    op = em.build_pea(em.build_shifted(spec, target), layout)
    report = em.measure_eta(op, spec, target, layout)
    assert report.eta <= result.eta_target
    assert abs(report.eta - result.eta) <= 1e-9


def test_calibration_headline_configuration(setup_04):
    calib = setup_04["calib"]
    assert calib.converged
    assert calib.eta <= 2.0 ** -5
    report = setup_04["eta_report"]
    assert report.eta <= 2.0 ** -5
    assert abs(report.eta - calib.eta) <= 1e-9


def test_calibration_cache_roundtrip(tmp_path):
    path = tmp_path / "calib.json"
    first = em.calibrate_workspace(3.0, 0.05, cache_path=path)
    assert path.exists()
    again = em.calibrate_workspace(3.0, 0.05, cache_path=path)
    assert again == first


def test_halving_delta_at_most_quadruples_workspace(calib_04):
    mus = {0.4: calib_04.mu}
    for delta in (0.2, 0.1, 0.05):
        mus[delta] = em.calibrate_workspace(delta, 0.05).mu
    for big, small in ((0.4, 0.2), (0.2, 0.1), (0.1, 0.05)):
        ratio = 2 ** mus[small] / 2 ** mus[big]
        assert 1 <= ratio <= 4


def test_scaling_constant_bounded():
    const, records = pea.scaling_constant(range(6, 11), delta=0.4, b=0.05,
                                          grid_per_bin=32)
    assert const <= 10.0
    assert len(records) == 5
    assert all(r["constant"] <= 10.0 for r in records)


def test_calibration_failure_reports_best():
    result = em.calibrate_workspace(0.4, 0.05, mu_cap=8)
    assert not result.converged
    assert result.mu <= 8
    assert result.eta > result.eta_target


def test_calibrate_rejects_bad_arguments():
    with pytest.raises(ValueError, match="delta"):
        em.calibrate_workspace(0.0, 0.05)
    with pytest.raises(ValueError, match="b"):
        em.calibrate_workspace(0.4, 0.3)
    with pytest.raises(ValueError, match="eta_target"):
        em.calibrate_workspace(0.4, 0.05, eta_target=0.0)

import numpy as np
import pytest

import eigenmark as em
from eigenmark import audit, fpqs

from conftest import rotation_block, EXTENDED


def block_diag_operator(blocks):
    """Joint operator acting as blocks[i] on the workspace of main index i."""
    dim = sum(b.shape[0] for b in blocks)
    full = np.zeros((dim, dim), complex)
    at = 0
    for b in blocks:
        full[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]
    return em.from_matrix(full, cost=(("P", 1),))


def wrong_after(op, main_dim, window, sigma_dim, marked_row=0):
    sigma = np.zeros(main_dim * sigma_dim, complex)
    sigma[marked_row * sigma_dim] = 1.0
    out = op.apply_to(sigma)
    block = out[marked_row * sigma_dim:(marked_row + 1) * sigma_dim]
    return np.linalg.norm(block[~window.mask()]), out


def test_selective_phase_examples():
    ident = em.selective_phase(em.SubspaceProjector(3, (1,)), 0.0)
    np.testing.assert_allclose(em.dense_materialize(ident), np.eye(3), atol=1e-15)

    flip = em.selective_phase(np.array([1.0 + 0j, 0.0]), np.pi)
    np.testing.assert_allclose(em.dense_materialize(flip), np.diag([-1, 1]), atol=1e-12)

    third = em.selective_phase(np.array([0.0, 1.0 + 0j]), np.pi / 3)
    out = third.apply_to(np.array([0.0, 1.0 + 0j]))
    assert abs(out[1] - (0.5 + 0.86603j)) <= 1e-5


def test_selective_phase_state_vs_projector_agree():
    rng = np.random.default_rng(13)
    for _ in range(5):
        angle = rng.uniform(-np.pi, np.pi)
        via_proj = em.selective_phase(em.SubspaceProjector(4, (2,)), angle)
        vec = np.zeros(4, complex)
        vec[2] = 1.0
        via_state = em.selective_phase(vec, angle)
        got = em.dense_materialize(via_state)
        want = em.dense_materialize(via_proj)
        assert np.abs(got - want).max() <= 1e-12


def _workspace_target(kind):
    """A workspace target of dim 4 and its projector as a matrix."""
    if kind == "projector":
        return em.SubspaceProjector(4, (1, 3)), np.diag([0.0, 1.0, 0.0, 1.0])
    rng = np.random.default_rng(14)
    state = rng.normal(size=4) + 1j * rng.normal(size=4)
    state /= np.linalg.norm(state)
    return state, np.outer(state, state.conj())


@pytest.mark.parametrize("kind", ["projector", "state"])
def test_selective_phase_about_a_workspace_state_acts_on_every_row(kind):
    # A projector target ignored main_dim and gave a phase of dim 4.
    target, proj = _workspace_target(kind)
    angle = 0.9
    op = em.selective_phase(target, angle, main_dim=3)
    work = np.eye(4) - (1 - np.exp(1j * angle)) * proj
    assert op.dim == 12
    assert np.abs(em.dense_materialize(op) - np.kron(np.eye(3), work)).max() <= 1e-12


@pytest.mark.parametrize("kind", ["projector", "state"])
def test_selective_phase_rejects_empty_main_space(kind):
    target, _proj = _workspace_target(kind)
    with pytest.raises(ValueError, match="main_dim"):
        em.selective_phase(target, 0.9, main_dim=0)
    # A fraction used to pass here and fail at the first application.
    with pytest.raises(TypeError, match="main_dim"):
        em.selective_phase(target, 0.9, main_dim=1.5)


def test_uniform_state_phase_is_unitary_in_extended_precision():
    # Row sums over the workspace are pairwise, so near the uniform state u
    # the phase stays unitary to a few ulps at W = 2^11 (a sequential sum
    # leaves about 100 ulps).
    wdim = 2 ** 11
    op = em.selective_phase(np.full(wdim, wdim ** -0.5), np.pi / 3, 2)
    x = np.zeros((2, wdim), dtype=EXTENDED)
    x[1] = 1 / np.sqrt(np.longdouble(wdim))
    x = x.ravel()
    back = op.adjoint_apply_to(op.apply_to(x))
    assert float(np.linalg.norm(back - x)) <= 16 * np.finfo(EXTENDED).eps


@pytest.mark.skipif(EXTENDED is np.complex128, reason="no extended precision on this platform")
def test_state_phase_keeps_an_extended_target():
    # The target used to be rounded to complex128, which put the phase on
    # t itself 4.4e-17 off; long double leaves a few long-double ulps.
    long = np.finfo(EXTENDED).dtype.type
    rng = np.random.default_rng(15)
    t = (rng.normal(size=16) + 1j * rng.normal(size=16)).astype(EXTENDED)
    t += 2.0 ** -60 * rng.normal(size=16)
    t /= np.sqrt((t.conj() @ t).real)
    got = em.selective_phase(t, fpqs.PI3).apply_to(t)
    want = np.exp(1j * long(fpqs.PI3)) * t
    assert np.abs(got - want).max() <= 8 * np.finfo(EXTENDED).eps


@pytest.mark.skipif(EXTENDED is np.complex128, reason="no extended precision on this platform")
def test_pi3_phase_turns_by_exact_pi_over_3_in_extended_precision():
    # fpqs.PI3 is pi/3 rounded in long double: on a unit state t the
    # complex256 pi/3 phase gives e^{i pi/3} t, computed by mpmath at 40
    # digits, to a few long-double ulps (a double pi/3 misses by 6e-17).
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40

    def exact(x):
        mantissa, exponent = np.frexp(x)
        return mpmath.ldexp(int(np.ldexp(mantissa, 64)), int(exponent) - 64)

    rng = np.random.default_rng(16)
    t = (rng.normal(size=16) + 1j * rng.normal(size=16)).astype(EXTENDED)
    t /= np.sqrt((t.conj() @ t).real)
    got = em.selective_phase(t, fpqs.PI3).apply_to(t)
    turn = mpmath.expjpi(mpmath.mpf(1) / 3)
    miss = max(abs(mpmath.mpc(exact(g.real), exact(g.imag))
                   - turn * mpmath.mpc(exact(v.real), exact(v.imag)))
               for g, v in zip(got, t))
    assert float(miss) <= 8 * float(np.finfo(EXTENDED).eps)


def test_selective_phase_rejects_unnormalized_target():
    with pytest.raises(ValueError, match="norm"):
        em.selective_phase(np.array([1.0, 1.0]), 0.3)


@pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf, np.longdouble("nan")],
                         ids=["nan", "inf", "minus_inf", "longdouble_nan"])
def test_selective_phase_rejects_a_non_finite_angle(angle):
    # A NaN angle would write NaN amplitudes, and an infinite one warn.
    for target in (em.SubspaceProjector(3, (1,)), np.array([0.6, 0.8j])):
        with pytest.raises(ValueError, match="not finite"):
            em.selective_phase(target, angle)


def test_compress_cubes_failure_amplitude():
    window = em.SubspaceProjector(2, (0,))
    for eta, want in ((0.1, 1.0e-3), (0.5, 0.125)):
        v = em.from_matrix(rotation_block(eta))
        out = em.pi3_compress(v, window).apply_to(np.array([1.0 + 0j, 0.0]))
        assert abs(abs(out[1]) - want) <= 1e-12
        assert abs(abs(out[0]) - np.sqrt(1 - eta ** 6)) <= 1e-12
    # eta = 0.5 success magnitude matches sqrt(1 - eta^6) ~ 0.99216
    assert abs(np.sqrt(1 - 0.5 ** 6) - 0.99216) <= 5e-6


def test_compress_fixed_point_at_zero_error():
    window = em.SubspaceProjector(2, (0,))
    v = em.from_matrix(rotation_block(0.0))
    out = em.pi3_compress(v, window).apply_to(np.array([1.0 + 0j, 0.0]))
    assert abs(out[1]) <= 1e-15


def test_balance_fixed_point_at_zero_error():
    # With no wrong-subspace amplitude the balanced product leaves the
    # state unchanged up to a global phase.
    window = em.SubspaceProjector(2, (0,))
    v = em.from_matrix(rotation_block(0.0))
    sigma = np.array([1.0 + 0j, 0.0])
    before = v.apply_to(sigma)
    after = em.pi3_balance(v, window).apply_to(sigma)
    overlap = abs(np.vdot(before, after))
    assert abs(overlap - 1.0) <= 1e-12


def test_balance_grows_failure_linearly():
    window = em.SubspaceProjector(2, (0,))
    eta = 0.1
    v = em.from_matrix(rotation_block(eta))
    out = em.pi3_balance(v, window).apply_to(np.array([1.0 + 0j, 0.0]))
    got = abs(out[1])
    assert abs(got - 0.17321) <= 0.17321 * 2 * eta ** 2  # sqrt(3)*eta up to O(eta^2)
    exact = eta * np.sqrt(3 - 3 * eta ** 2 + eta ** 4)
    assert abs(got - exact) <= 1e-12


def test_balance_after_compress_at_regime_boundary():
    eta = 2.0 ** -5
    window = em.SubspaceProjector(2, (0,))
    v = em.from_matrix(rotation_block(eta))
    p11 = em.pi3_balance(em.pi3_compress(v, window), window)
    out = p11.apply_to(np.array([1.0 + 0j, 0.0]))
    assert abs(abs(out[1]) - np.sqrt(3) * eta ** 3) <= 1e-12
    assert abs(abs(out[1]) - 5.286e-5) <= 5e-9


def test_exact_cubing_for_random_unitaries():
    result = audit.check_fpqs_exact_cubing(14)
    assert result.ok, result.detail


def test_balance_cubes_window_mass_for_random_unitaries():
    result = audit.check_fpqs_balance_mass_cubing(15)
    assert result.ok, result.detail


def test_level_zero_is_wrapped_operator(small_model):
    spec, target, layout = small_model
    op = em.build_pea(em.build_shifted(spec, target), layout)
    fp0 = em.build_fixed_point(op, 0, layout.z_window())
    assert np.abs(em.dense_materialize(fp0) - em.dense_materialize(op)).max() == 0.0
    tally = em.Tally()
    fp0.apply_to(np.eye(op.dim, dtype=complex)[:, :1], tally)
    assert tally.get("P") == 1


def test_level_one_magnitudes_for_engineered_blocks():
    # Marked block leaves eta outside the window; unmarked block leaves eta
    # inside it.  One recursion level sends those to ~sqrt(3) eta^3 and
    # ~3^{3/2} eta^3 respectively.
    eta = 2.0 ** -5
    window = em.SubspaceProjector(2, (0,))
    marked_block = rotation_block(eta)
    unmarked_block = rotation_block(np.sqrt(1 - eta * eta))
    v = block_diag_operator([marked_block, unmarked_block])
    fp1 = em.build_fixed_point(v, 1, window)
    got_marked, _ = wrong_after(fp1, 2, window, 2, marked_row=0)
    assert abs(got_marked - np.sqrt(3) * eta ** 3) <= 1e-12

    sigma = np.zeros(4, complex)
    sigma[2] = 1.0
    out = fp1.apply_to(sigma)
    got_unmarked = np.linalg.norm(out[2:][window.mask()])
    want = (1 - (1 - eta ** 2) ** 3) ** 1.5  # exact in-window mass cubing, amplitude
    assert abs(got_unmarked - want) <= 1e-12
    assert abs(got_unmarked - 3.0 ** 1.5 * eta ** 3) <= 3.0 ** 1.5 * eta ** 3 * 2 * eta ** 2


def test_q_cap_enforced(small_model):
    spec, target, layout = small_model
    op = em.build_pea(em.build_shifted(spec, target), layout)
    with pytest.raises(ValueError, match="exceeds the level cap 3"):
        em.build_fixed_point(op, 4, layout.z_window())


@pytest.mark.parametrize("q", [1.5, True, 1.0], ids=["fraction", "bool", "integral_float"])
def test_non_integer_level_rejected(q):
    # predict_schedule(2.5, 0.01) once gave m = 3^2.5, and a bool level m = 3.
    for read in (fpqs.check_level, fpqs.RecursionSchedule.closed_form,
                 lambda q: em.predict_schedule(q, 0.01)):
        with pytest.raises(TypeError, match="integer"):
            read(q)


def test_numpy_integer_level_accepted(small_model):
    spec, target, layout = small_model
    op = em.build_pea(em.build_shifted(spec, target), layout)
    fpqs.check_level(np.int64(2))
    assert fpqs.RecursionSchedule.closed_form(np.int64(2)) == fpqs.RecursionSchedule.closed_form(2)
    tally = em.Tally()
    state = np.outer(spec.basis_column(0), layout.sigma_state()).ravel()
    em.build_fixed_point(op, np.int64(1), layout.z_window()).apply_to(state, tally)
    assert tally.get("P") == 9


def test_block_locality(small_model):
    spec, target, layout = small_model
    op = em.build_pea(em.build_shifted(spec, target), layout)
    result = audit.check_fpqs_block_locality(op, spec, layout, 2)
    assert result.ok, result.detail


def test_schedule_closed_forms():
    s0 = fpqs.RecursionSchedule.closed_form(0)
    assert (s0.m, s0.g, s0.h) == (1, 1.0, 1.0)
    s2 = fpqs.RecursionSchedule.closed_form(2)
    assert (s2.m, s2.g, s2.h) == (9, 9.0, 729.0)
    assert abs(729.0 * (2.0 ** -5) ** 9 - 2.072e-11) <= 0.001e-11
    s1 = fpqs.RecursionSchedule.closed_form(1)
    assert abs(s1.eps - 3.614e-4) <= 0.001e-4
    assert abs(s2.eps - (3 ** 0.75 * 2.0 ** -5) ** 9) <= 1e-12 * s2.eps


def test_predict_schedule_magnitudes():
    # Inside the working regime and beyond it, where the law holds only
    # loosely but still yields numbers.
    good = em.predict_schedule(2, 2.0 ** -5)
    assert abs(good.unmarked_magnitude - 729.0 * (2.0 ** -5) ** 9) <= 1e-23
    loose = em.predict_schedule(1, 0.1)
    assert loose.marked_magnitude == pytest.approx(np.sqrt(3) * 1e-3, rel=1e-12)
    with pytest.raises(ValueError, match="eta"):
        em.predict_schedule(1, 0.0)


def test_level_law_matches_the_schedule():
    # The log-space law is g_q eta^m and h_q eta^m with the closed-form
    # growth factors; predict_schedule and the planner both read it.
    for q in range(4):
        sched = em.RecursionSchedule.closed_form(q)
        for eta in (2.0 ** -5, 1e-3, 0.1):
            marked, unmarked = fpqs.log_wrong_magnitudes(q, eta)
            assert marked == pytest.approx(np.log(sched.g) + sched.m * np.log(eta), rel=1e-12)
            assert unmarked == pytest.approx(np.log(sched.h) + sched.m * np.log(eta),
                                             rel=1e-12)
            pred = em.predict_schedule(q, eta)
            assert (pred.marked_magnitude, pred.unmarked_magnitude) == (np.exp(marked),
                                                                        np.exp(unmarked))


def test_compress_dimension_mismatch():
    window = em.SubspaceProjector(3, (0,))
    v = em.from_matrix(np.eye(4, dtype=complex))
    with pytest.raises(ValueError, match="dim"):
        em.pi3_compress(v, window)

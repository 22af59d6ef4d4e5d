import numpy as np
import pytest

import eigenmark as em
from eigenmark.statevec import EXTENDED, NORM_TOL, real_dtype

from conftest import haar_unitary

H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_identity_leaves_state_unchanged():
    state = em.product_state(np.array([0.6, 0.8j]), np.array([1, 0], complex))
    out = em.apply(em.identity(4), state, "joint")
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=0)


def test_hadamard_twice_is_identity():
    state = em.product_state(np.array([1.0 + 0j]), np.array([1, 0], complex))
    h = em.from_matrix(H2)
    once = em.apply(h, state, "work")
    np.testing.assert_allclose(np.abs(once.tensor()[0]), [1 / np.sqrt(2)] * 2, atol=1e-15)
    twice = em.apply(h, once, "work")
    assert np.abs(twice.amplitudes - state.amplitudes).max() <= 1e-12


def test_work_side_op_preserves_main_marginals():
    rng = np.random.default_rng(0)
    main = rng.normal(size=3) + 1j * rng.normal(size=3)
    main /= np.linalg.norm(main)
    state = em.product_state(main, np.array([0.6, 0.8j]))
    out = em.apply(em.from_matrix(H2), state, "work")
    before = np.linalg.norm(state.tensor(), axis=1)
    after = np.linalg.norm(out.tensor(), axis=1)
    np.testing.assert_allclose(after, before, atol=1e-12)


def test_main_side_application():
    u = haar_unitary(np.random.default_rng(1), 3)
    main = np.zeros(3, complex)
    main[0] = 1.0
    state = em.product_state(main, np.array([1, 0], complex))
    out = em.apply(em.from_matrix(u), state, "main")
    np.testing.assert_allclose(out.tensor()[:, 0], u[:, 0], atol=1e-12)


def test_apply_dimension_mismatch_reports_both_dims():
    state = em.product_state(np.array([1.0 + 0j]), np.array([1, 0], complex))
    with pytest.raises(ValueError, match="3.*1|1.*3"):
        em.apply(em.identity(3), state, "main")
    with pytest.raises(ValueError, match="work"):
        em.apply(em.identity(4), state, "work")
    with pytest.raises(ValueError, match="unknown side"):
        em.apply(em.identity(2), state, "sideways")


def test_apply_charges_cost_once_per_application():
    op = em.from_matrix(H2, cost=(("U", 3),))
    state = em.product_state(np.array([0.6, 0.8]), np.array([1, 0], complex))
    tally = em.Tally()
    em.apply(op, state, "work", tally)
    assert tally.get("U") == 3
    op.adjoint_apply_to(np.array([1, 0], complex), tally)
    assert tally.get("U") == 6


def test_subspace_amplitude_symmetric_state():
    state = em.product_state(np.array([1.0 + 0j]),
                             np.array([1, 1], complex) / np.sqrt(2))
    proj = em.SubspaceProjector(2, (0,))
    comp = em.subspace_amplitude(state, proj)
    assert abs(comp.magnitude - 0.70711) < 5e-6
    inside = em.subspace_amplitude(state, proj)
    outside = em.subspace_amplitude(state, proj.complement())
    assert abs(inside.magnitude ** 2 + outside.magnitude ** 2 - 1.0) <= 1e-12


def test_subspace_amplitude_basis_states():
    inside = em.product_state(np.array([1.0 + 0j]), np.array([1, 0], complex))
    proj = em.SubspaceProjector(2, (0,))
    assert em.subspace_amplitude(inside, proj).magnitude == pytest.approx(1.0, abs=1e-15)
    assert em.subspace_amplitude(inside, proj.complement()).magnitude == 0.0


def test_subspace_amplitude_empty_projector_degenerate():
    state = em.product_state(np.array([1.0 + 0j]), np.array([1, 0], complex))
    comp = em.subspace_amplitude(state, em.SubspaceProjector(2, ()))
    assert comp.magnitude == 0.0
    assert comp.degenerate


def test_dense_materialize_selective_phase():
    op = em.selective_phase(em.SelectivePhaseSpec(em.SubspaceProjector(2, (0,)), np.pi))
    np.testing.assert_allclose(em.dense_materialize(op), np.diag([-1, 1]), atol=1e-15)


def test_dense_materialize_functorial_over_composition():
    rng = np.random.default_rng(2)
    a = em.from_matrix(haar_unitary(rng, 6))
    b = em.from_matrix(haar_unitary(rng, 6))
    lhs = em.dense_materialize(em.compose(a, b))
    rhs = em.dense_materialize(a) @ em.dense_materialize(b)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_pea_dense_matches_hand_composition():
    # mu=1 on a single main direction with shifted phase lam: the joint
    # operator should equal (iQFT)(ctrl-power)(H) assembled by hand.
    lam = 0.7321
    spec = em.SpectralUnitary(dim=1, eigenphases=(lam,), delta=1.0)
    target = em.MarkTarget.resolve(spec, psi_prime=lam - 0.001, phi=np.pi, b=0.25)
    layout = em.WorkspaceLayout(mu=1, window=0)
    got = em.dense_materialize(em.build_pea(em.build_shifted(spec, target), layout))
    shift = target.lambdas[0]
    ctrl = np.diag([1.0, np.exp(1j * shift)])
    want = H2 @ ctrl @ H2  # inverse QFT on one qubit is H
    assert np.abs(got - want).max() <= 1e-12


def test_unitarity_of_constructed_operators(small_model):
    spec, target, layout = small_model
    pea_op = em.build_pea(em.build_shifted(spec, target), layout)
    fp = em.build_fixed_point(pea_op, 1, spec.dim, layout.z_window())
    for op in (pea_op, fp, em.unitary_of(spec)):
        m = em.dense_materialize(op)
        assert np.abs(m.conj().T @ m - np.eye(op.dim)).max() <= 1e-12


def test_matrix_free_agrees_with_dense_on_random_vectors(small_model):
    spec, target, layout = small_model
    op = em.build_pea(em.build_shifted(spec, target), layout)
    dense = em.dense_materialize(op)
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
        v /= np.linalg.norm(v)
        assert np.abs(op.apply_to(v) - dense @ v).max() <= 1e-12


def test_adjoint_inner_product_identity(small_model):
    spec, target, layout = small_model
    op = em.build_pea(em.build_shifted(spec, target), layout)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
        y = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
        assert abs(np.vdot(x, op.apply_to(y)) - np.vdot(op.adjoint_apply_to(x), y)) <= 1e-10
        v = x / np.linalg.norm(x)
        assert np.abs(op.adjoint_apply_to(op.apply_to(v)) - v).max() <= 1e-12


def test_joint_state_validation():
    with pytest.raises(ValueError, match="power of two"):
        em.JointState(2, 3, np.zeros(6))
    with pytest.raises(ValueError, match="length"):
        em.JointState(2, 2, np.array([1.0, 0, 0]))
    with pytest.raises(ValueError, match="norm"):
        em.JointState(1, 2, np.array([1.0, 1.0]))
    good = em.JointState(1, 2, np.array([1.0, 0.0]))
    assert good.norm() == pytest.approx(1.0, abs=NORM_TOL)
    with pytest.raises(ValueError):
        good.amplitudes[0] = 0.0  # frozen buffer


def test_dense_guard():
    with pytest.raises(ValueError, match="guard"):
        em.dense_materialize(em.identity(4097))


def test_projector_validation():
    with pytest.raises(ValueError, match="outside"):
        em.SubspaceProjector(4, (0, 4))
    proj = em.SubspaceProjector(4, (2, 0, 2))
    assert proj.member_indices == (0, 2)
    assert proj.complement().member_indices == (1, 3)


def test_builders_keep_extended_precision(small_model):
    spec, target, layout = small_model
    shifted = em.build_shifted(spec, target)
    pea_op = em.build_pea(shifted, layout)
    ops = {
        "build_pea": pea_op,
        "build_fixed_point": em.build_fixed_point(pea_op, 1, spec.dim, layout.z_window()),
        "selective_phase": em.selective_phase(em.SelectivePhaseSpec(np.array([0.6, 0.8j]),
                                                                    1.1)),
        "build_shifted": shifted,
        "build_h_tensor": em.build_h_tensor(pea_op, 3, layout, spec.dim),
    }
    for name, op in ops.items():
        x = np.zeros(op.dim, dtype=EXTENDED)
        x[0] = 1.0
        assert op.apply_to(x).dtype == EXTENDED, name
        assert op.adjoint_apply_to(x).dtype == EXTENDED, name
    if hasattr(np, "complex256"):
        assert np.finfo(real_dtype(EXTENDED)).eps < 1e-16

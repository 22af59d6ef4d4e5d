import os
import platform
import resource
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import eigenmark as em
from eigenmark import statevec
from eigenmark.fpqs import PI3
from eigenmark.spectral import haar_unitary
from eigenmark.statevec import EXTENDED, in_frame, phase_tables, real_dtype

from conftest import assert_tables_built_once_under_threads

H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
SIGMA2, SIGMA4 = np.eye(1, 2)[0], np.eye(1, 4)[0]  # sigma = |0> on 2 and 4 workspace states


def test_identity_leaves_state_unchanged():
    state = np.outer(np.array([0.6, 0.8j]), np.array([1, 0], complex)).ravel()
    out = em.identity(4).apply_to(state)
    np.testing.assert_allclose(out, state, atol=0)


def test_hadamard_twice_is_identity():
    state = np.array([1, 0], complex)
    h = em.from_matrix(H2)
    once = h.apply_to(state)
    np.testing.assert_allclose(np.abs(once), [1 / np.sqrt(2)] * 2, atol=1e-15)
    twice = h.apply_to(once)
    assert np.abs(twice - state).max() <= 1e-12


def test_work_side_op_preserves_main_marginals():
    rng = np.random.default_rng(0)
    main = rng.normal(size=3) + 1j * rng.normal(size=3)
    main /= np.linalg.norm(main)
    state = np.outer(main, np.array([0.6, 0.8j]))
    out = em.from_matrix(np.kron(np.eye(3), H2)).apply_to(state.ravel())
    before = np.linalg.norm(state, axis=1)
    after = np.linalg.norm(out.reshape(3, 2), axis=1)
    np.testing.assert_allclose(after, before, atol=1e-12)


def test_main_side_application():
    u = haar_unitary(np.random.default_rng(1), 3)
    main = np.zeros(3, complex)
    main[0] = 1.0
    state = np.outer(main, np.array([1, 0], complex)).ravel()
    out = em.from_matrix(np.kron(u, np.eye(2))).apply_to(state)
    np.testing.assert_allclose(out.reshape(3, 2)[:, 0], u[:, 0], atol=1e-12)


def test_apply_dimension_mismatch_reports_both_dims():
    # The driver names both dimensions: a workspace that does not tile the
    # operator, and a main vector of the wrong length.
    with pytest.raises(ValueError, match="dim 6 .*work dim 4"):
        em.apply(em.identity(6), [np.ones(1)], SIGMA4)
    with pytest.raises(ValueError, match="dim 4 .*dim 6"):
        em.apply(em.identity(4), [np.ones(3)], SIGMA2)


def test_apply_charges_cost_once_per_application():
    # One application, and one charge, per main vector, forward and adjoint;
    # each output is main (x) sigma through the operator as (main_dim,
    # work_dim) rows, checked against the dense product.
    rng = np.random.default_rng(5)
    matrix = haar_unitary(rng, 6)
    op = em.from_matrix(matrix, cost=(("U", 3),))
    mains = [np.array([0.6, 0.8j, 0.0]), np.array([0.0, 1j, 0.0])]
    sigma = np.array([1, 0], complex)
    tally = em.Tally()
    for run, dense, charged in ((op, matrix, 6), (op.adjoint, matrix.conj().T, 12)):
        outs = em.apply(run, mains, sigma, tally)
        assert tally.get("U") == charged
        assert len(outs) == len(mains)
        for main, out in zip(mains, outs):
            assert out.shape == (3, 2)
            want = (dense @ np.outer(main, sigma).ravel()).reshape(3, 2)
            assert np.abs(out - want).max() <= 1e-12
    op.adjoint_apply_to(np.zeros(6, complex), tally)
    assert tally.get("U") == 15


def _probes(rng, dim: int, count: int, dtype) -> list[np.ndarray]:
    mains = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return list((mains / np.linalg.norm(mains, axis=1, keepdims=True)).astype(dtype))


def test_driver_matches_a_serial_loop_on_extended_recursion(small_model):
    # A complex256 level-2 marker: its directions and its probes through
    # one driver call on u equal a serial apply_to loop bit for bit, and
    # charge the same books.
    spec, target, layout = small_model
    assembly = em.build_assembly(spec, target, layout, "fixed_point", q=2)
    ops = assembly.directions + (assembly.inner,) * 3
    mains = ([np.ones(1, dtype=EXTENDED)] * spec.dim
             + _probes(np.random.default_rng(2), spec.dim, 3, EXTENDED))
    u = assembly.uniform(EXTENDED)
    serial = em.Tally()
    want = [op.apply_to(np.outer(main, u).ravel(), serial).reshape(-1, layout.work_dim)
            for op, main in zip(ops, mains)]
    tally = em.Tally()
    got = em.apply(ops, mains, u, tally)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == EXTENDED
        assert np.array_equal(g, w)
    assert tally.counts == serial.counts
    assert tally.get("P") == 2 * 9 ** 2 * len(ops)


def test_driver_rejects_an_operator_count_mismatch():
    with pytest.raises(ValueError, match="2 operators for 3 main vectors"):
        em.apply([em.identity(2)] * 2, [np.ones(1, dtype=EXTENDED)] * 3, SIGMA2)


def _identity_doing(dim: int, cost=(), action=None) -> em.LinearOperator:
    def run(x, _tally):
        if action is not None:
            action()
        return x
    return em.LinearOperator(dim, run, run, cost)


def test_driver_raises_the_first_failing_input(monkeypatch):
    # Input 3 fails first in time, input 1 first in input order: input 1's
    # exception propagates, after every application ended, and the books
    # hold what a serial loop charges up to it.
    monkeypatch.setattr(statevec, "_cores", lambda: 2)
    ran = []

    def step(k, delay=0.0, fails=False):
        def act():
            time.sleep(delay)
            ran.append(k)
            if fails:
                raise RuntimeError(f"input {k}")
        return act

    cost = (("U", 1),)
    ops = [_identity_doing(2, cost, step(0)), _identity_doing(2, cost, step(1, 0.2, True)),
           _identity_doing(2, cost, step(2)), _identity_doing(2, cost, step(3, fails=True))]
    before = threading.active_count()
    tally = em.Tally()
    with pytest.raises(RuntimeError, match="input 1"):
        em.apply(ops, [np.ones(1, dtype=EXTENDED)] * 4, SIGMA2, tally)
    assert sorted(ran) == [0, 1, 2, 3]
    assert tally.get("U") == 2
    assert threading.active_count() == before


def test_driver_leaves_no_thread_behind(small_model):
    # No thread outlives a call: a process forked afterwards (sweep --jobs)
    # must inherit none.
    spec, target, layout = small_model
    assembly = em.build_assembly(spec, target, layout, "fixed_point", q=1)
    mains = _probes(np.random.default_rng(3), spec.dim, 4, EXTENDED)
    before = threading.active_count()
    em.apply([assembly.inner] * 4, mains, assembly.uniform(EXTENDED), em.Tally())
    assert threading.active_count() == before


def _record_pools(monkeypatch) -> list:
    """(max_workers, submitted input indices) of every pool apply makes."""
    pools = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            pools.append((max_workers, []))

        def submit(self, fn, i, *args):
            pools[-1][1].append(i)
            return super().submit(fn, i, *args)

    monkeypatch.setattr(statevec, "ThreadPoolExecutor", Recording)
    return pools


def test_driver_workers_order_and_dtype_gate(monkeypatch):
    # min(cores, vectors) workers, the largest operator submitted first
    # (input order among equals), and small complex128 inputs never reach
    # a pool.
    pools = _record_pools(monkeypatch)
    monkeypatch.setattr(statevec, "_cores", lambda: 3)
    ops = [_identity_doing(2), _identity_doing(4), _identity_doing(2), _identity_doing(6), _identity_doing(4)]
    mains = [np.ones(d // 2, dtype=EXTENDED) for d in (2, 4, 2, 6, 4)]
    outs = em.apply(ops, mains, SIGMA2)
    assert [out.shape for out in outs] == [(1, 2), (2, 2), (1, 2), (3, 2), (2, 2)]
    em.apply(ops[:2], mains[:2], SIGMA2)
    assert pools == [(3, [3, 1, 4, 0, 2]), (2, [1, 0])]
    em.apply(ops, [m.astype(np.complex128) for m in mains], SIGMA2)
    em.apply(ops[:1], mains[:1], SIGMA2)
    assert len(pools) == 2


def test_driver_size_gate_for_complex128(monkeypatch):
    # complex128 applications reach a pool only when every one has at
    # least THREAD_MIN_DIM amplitudes.
    pools = _record_pools(monkeypatch)
    monkeypatch.setattr(statevec, "_cores", lambda: 3)
    big, under = statevec.THREAD_MIN_DIM, statevec.THREAD_MIN_DIM - 2

    def mains(*dims):
        return [np.ones(d // 2, dtype=np.complex128) for d in dims]

    em.apply([_identity_doing(under)] * 2, mains(under, under), SIGMA2)
    em.apply([_identity_doing(big), _identity_doing(under)], mains(big, under), SIGMA2)
    assert pools == []
    em.apply([_identity_doing(big)] * 2, mains(big, big), SIGMA2)
    assert pools == [(2, [0, 1])]


def _voting_applications():
    """complex128 voting at mu=5, nu=3: 2 directions of 32,768 amplitudes
    and 2 probes of 65,536 through the inner markers, as (ops, mains, u)."""
    rng = np.random.default_rng(11)
    spec = em.SpectralUnitary(dim=2, eigenphases=(0.02, 1.8),
                              eigenbasis=haar_unitary(rng, 2), delta=1.5)
    target = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)
    layout = em.WorkspaceLayout(mu=5, window=3)
    assembly = em.build_assembly(spec, target, layout, "voting", nu=3)
    ops = assembly.directions + (assembly.inner,) * 2
    mains = [np.ones(1, dtype=complex)] * 2 + _probes(rng, 2, 2, np.complex128)
    return ops, mains, assembly.uniform()


def test_driver_threads_large_complex128_voting(monkeypatch):
    # The 2 directions and 2 probes of a voting evaluation run on a pool,
    # and equal a serial apply_to loop bit for bit with the same books.
    pools = _record_pools(monkeypatch)
    ops, mains, u = _voting_applications()
    serial = em.Tally()
    want = [op.apply_to(np.outer(main, u).ravel(), serial).reshape(-1, len(u))
            for op, main in zip(ops, mains)]
    before = threading.active_count()
    tally = em.Tally()
    got = em.apply(ops, mains, u, tally)
    assert threading.active_count() == before
    assert [workers for workers, _ in pools] == [min(statevec._cores(), 4)]
    assert all(g.dtype == np.complex128 and np.array_equal(g, w) for g, w in zip(got, want))
    assert tally.counts == serial.counts
    assert tally.get("P") == 2 * 3 * len(ops)  # core and its adjoint, nu registers each


def test_warm_voting_applications_fault_in_no_fresh_memory():
    # Once warm, the transients of a voting evaluation's applications
    # reuse memory freed by the last call (statevec._keep_freed_memory):
    # three calls fault in about 30 pages, and about 18,000 with glibc's
    # default thresholds.  Twenty threaded calls, each on a fresh pool,
    # would also fault in fresh pages if their workers kept taking new
    # malloc arenas.
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("sets glibc's malloc thresholds only")
    ops, mains, u = _voting_applications()
    for _ in range(2):
        em.apply(ops, mains, u)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        em.apply(ops, mains, u)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


def test_shared_cores_cap_the_driver(monkeypatch):
    # A sweep --jobs worker calls share_cores(workers) as its initializer:
    # its apply calls then run at most max(1, cores // workers) threads.
    pools = _record_pools(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(4)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(statevec, "_sharing", 1)  # restored after the test
    ops = [_identity_doing(2)] * 3
    mains = [np.ones(1, dtype=EXTENDED)] * 3
    for processes in (2, 3, 1):
        statevec.share_cores(processes)
        em.apply(ops, mains, SIGMA2)
    assert [workers for workers, _ in pools] == [2, 3]
    # A rejected count leaves the share as it was.
    with pytest.raises(ValueError, match="positive"):
        statevec.share_cores(0)
    em.apply(ops, mains, SIGMA2)
    assert [workers for workers, _ in pools] == [2, 3, 3]


def test_extended_applications_overlap():
    # Two extended applications are in flight at once: each waits for the
    # other at a barrier, which a serial loop would never pass.
    if statevec._cores() < 2:
        pytest.skip("needs two usable cores")
    meet = threading.Barrier(2, timeout=30)
    ops = [_identity_doing(2, action=meet.wait) for _ in range(2)]
    em.apply(ops, [np.ones(1, dtype=EXTENDED)] * 2, SIGMA2)


def test_projector_mask_splits_symmetric_state():
    rows = (np.array([1, 1], complex) / np.sqrt(2)).reshape(1, 2)
    proj = em.SubspaceProjector(2, (0,))
    inside = np.linalg.norm(rows[:, proj.mask()])
    outside = np.linalg.norm(rows[:, proj.complement().mask()])
    assert abs(inside - 0.70711) < 5e-6
    assert abs(inside ** 2 + outside ** 2 - 1.0) <= 1e-12


def test_projector_mask_on_basis_states():
    rows = np.array([[1, 0]], complex)
    proj = em.SubspaceProjector(2, (0,))
    assert np.linalg.norm(rows[:, proj.mask()]) == pytest.approx(1.0, abs=1e-15)
    assert np.linalg.norm(rows[:, proj.complement().mask()]) == 0.0
    assert np.linalg.norm(rows[:, em.SubspaceProjector(2, ()).mask()]) == 0.0


def test_dense_materialize_selective_phase():
    op = em.selective_phase(em.SubspaceProjector(2, (0,)), np.pi)
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
    fp = em.build_fixed_point(pea_op, 1, layout.z_window())
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


def test_in_frame_without_basis_is_the_operator():
    op = em.identity(6)
    assert in_frame(op, None, 2) is op


def test_in_frame_matches_dense_rotation():
    # (E x 1) . op . (E+ x 1) on a Haar basis E, forward and adjoint,
    # against the dense product.
    rng = np.random.default_rng(9)
    basis, work_dim = haar_unitary(rng, 3), 4
    op = em.from_matrix(haar_unitary(rng, 3 * work_dim))
    turn = np.kron(basis, np.eye(work_dim))
    framed = in_frame(op, basis, work_dim)
    want = turn @ em.dense_materialize(op) @ turn.conj().T
    assert np.abs(em.dense_materialize(framed) - want).max() <= 1e-12
    assert np.abs(em.dense_materialize(framed.adjoint) - want.conj().T).max() <= 1e-12


def test_dense_guard():
    with pytest.raises(ValueError, match="guard"):
        em.dense_materialize(em.identity(4097))


def test_projector_validation():
    for bad in ((0, 4), (-1,)):
        with pytest.raises(ValueError, match="outside"):
            em.SubspaceProjector(4, bad)
    proj = em.SubspaceProjector(4, (2, 0, 2))
    assert tuple(np.flatnonzero(proj.mask())) == (0, 2)
    assert tuple(np.flatnonzero(proj.complement().mask())) == (1, 3)
    # One stored read-only mask, whatever the order and repeats of the
    # indices; the complement is its exact negation.
    mask = proj.mask()
    assert mask.dtype == bool and proj.mask() is mask
    assert np.array_equal(mask, em.SubspaceProjector(4, np.array([0, 2])).mask())
    with pytest.raises(ValueError):
        mask[1] = True
    comp = proj.complement()
    assert np.array_equal(comp.mask(), ~mask) and not comp.mask().flags.writeable
    assert np.array_equal(comp.complement().mask(), mask)
    assert np.array_equal(em.SubspaceProjector(3, ()).complement().mask(), [True] * 3)
    # Indices are integers: a float is not truncated and a bool is not an
    # index, as require_int rules for one.
    for bad in ([0.5, 2.7], [True, False, True], np.array([0.0, 2.0]), ["0"]):
        with pytest.raises(TypeError, match="integers"):
            em.SubspaceProjector(3, bad)
    assert tuple(np.flatnonzero(em.SubspaceProjector(3, np.array([2], np.uint8)).mask())) == (2,)


def test_builders_keep_extended_precision(small_model):
    spec, target, layout = small_model
    shifted = em.build_shifted(spec, target)
    pea_op = em.build_pea(shifted, layout)
    ops = {
        "build_pea": pea_op,
        "build_fixed_point": em.build_fixed_point(pea_op, 1, layout.z_window()),
        "selective_phase": em.selective_phase(np.array([0.6, 0.8j]), 1.1),
        "build_shifted": shifted,
        "build_h_tensor": em.build_h_tensor(shifted.eigensystem[0], 3, layout),
    }
    for name, op in ops.items():
        x = np.zeros(op.dim, dtype=EXTENDED)
        x[0] = 1.0
        assert op.apply_to(x).dtype == EXTENDED, name
        assert op.adjoint_apply_to(x).dtype == EXTENDED, name
    if hasattr(np, "complex256"):
        assert np.finfo(real_dtype(EXTENDED)).eps < 1e-16


def test_real_inputs_are_made_complex():
    # A real main vector used to reach the real-view Hadamard as float64
    # and fail to reshape; from_matrix cast its matrix to the real input's
    # dtype and dropped the imaginary part with a ComplexWarning.
    spec = em.SpectralUnitary(dim=2, eigenphases=(0.03, 2.2), delta=1.5)
    target = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)
    layout = em.WorkspaceLayout(mu=3, window=1)
    marker = em.build_assembly(spec, target, layout, "fixed_point", q=1).frame
    sigma = layout.sigma_state(np.float64)
    (real,) = em.apply(marker, [np.array([0.0, 1.0])], sigma)
    (cplx,) = em.apply(marker, [np.array([0.0, 1.0 + 0j])], sigma)
    assert real.dtype == np.complex128
    assert np.array_equal(real, cplx)
    swap = em.from_matrix([[0, 1j], [1j, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = swap.apply_to(np.array([1.0, 0.0]))
        back = swap.adjoint_apply_to(np.eye(2))
    assert np.array_equal(out, [0, 1j])
    assert np.array_equal(back, [[0, -1j], [-1j, 0]])
    assert swap.apply_to(np.array([1.0, 0.0], dtype=np.longdouble)).dtype == EXTENDED


@pytest.mark.parametrize("build", [
    lambda op, layout: em.pi3_compress(op, layout.z_window()),
    lambda op, layout: em.build_fixed_point(op, 0, layout.z_window()),
    lambda op, layout: em.assemble_marker(op, np.pi, layout.z_window()),
], ids=["pi3_compress", "build_fixed_point", "assemble_marker"])
def test_builders_reject_a_non_whole_row_count(build):
    # Each builder reads its main row count from the operator it wraps, so
    # an operator the workspace does not tile is rejected, not truncated.
    layout = em.WorkspaceLayout(mu=2, window=0)
    op = em.identity(6)
    with pytest.raises(ValueError, match="not a whole multiple"):
        build(op, layout)


@pytest.mark.parametrize("build", [
    lambda: em.selective_phase(em.SubspaceProjector(8, (0, 1, 7)), PI3, 2),
    lambda: em.selective_phase(np.full(8, 8 ** -0.5), -PI3, 2),
    lambda: em.ideal_marker(*_two_directions()),
], ids=["selective_phase_projector", "selective_phase_uniform", "ideal_marker"])
def test_phase_tables_are_built_once_under_threads(monkeypatch, build):
    x = np.random.default_rng(3).normal(size=(build().dim, 2)).astype(EXTENDED)
    assert_tables_built_once_under_threads(monkeypatch, build, x)


def _two_directions():
    spec = em.SpectralUnitary(dim=2, eigenphases=(0.03, 2.2), delta=1.5)
    return spec, em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)


def _lambda_z_grid(real):
    lam = np.array([0.3, -2.9, 1.7, 0.02, -0.14879628921850046])
    return lam.astype(real)[:, None] * np.arange(2 ** 11, dtype=real)


@pytest.mark.parametrize("dtype", [np.complex128, EXTENDED], ids=["complex128", "extended"])
@pytest.mark.parametrize("angles", [
    lambda real: real.type(PI3),
    lambda real: real.type(-PI3),
    lambda real: real.type(np.pi),
    _lambda_z_grid,
], ids=["pi3", "minus_pi3", "pi", "lambda_z_grid"])
def test_adjoint_table_is_the_exponential_of_the_negated_angle(dtype, angles):
    # The adjoint half conjugates e^{i a}; selective phases and diagonal
    # operators used to exponentiate -a.  The two agree bit for bit, signs
    # included, except at an angle of -0 (z = 0 on a negative lambda),
    # where the conjugate's zero imaginary part is -0 and the old one's +0.
    forward, adjoint = phase_tables(angles)(dtype)
    a = angles(real_dtype(dtype))
    assert np.array_equal(forward, np.exp(1j * a).astype(dtype))
    old = np.asarray(np.exp(1j * -1 * a).astype(dtype))
    adjoint = np.asarray(adjoint)
    assert np.array_equal(adjoint.real, old.real) and np.array_equal(adjoint.imag, old.imag)
    minus_zero = (np.asarray(a) == 0) & np.signbit(a)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(adjoint))[~minus_zero],
                              np.signbit(part(old))[~minus_zero])
    assert np.all(adjoint[minus_zero] == 1)


def test_amplitude_dtypes_are_double_and_the_widest():
    for dtype in statevec.AMPLITUDE_DTYPES:
        statevec.check_amplitude_dtype(dtype)
    for dtype in (np.complex64, np.float64, np.longdouble):
        with pytest.raises(ValueError, match=f"{np.dtype(dtype).name} is not supported"):
            statevec.check_amplitude_dtype(dtype)

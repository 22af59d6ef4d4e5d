import itertools
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import eigenmark as em
from eigenmark import voting
from eigenmark.statevec import EXTENDED, in_frame


def enumeration_tail(p: float, nu: int) -> float:
    """Independent oracle: explicit binomial enumeration."""
    total = sum(math.comb(nu, k) * p ** k * (1 - p) ** (nu - k)
                for k in range(nu // 2 + 1, nu + 1))
    return math.sqrt(total)


def test_tail_zero_probability():
    for nu in (1, 3, 11):
        assert em.majority_tail_amplitude(0.0, nu) == 0.0


def test_tail_example_small_p():
    want = math.sqrt(3 * 1e-4 * 0.99 + 1e-6)
    got = em.majority_tail_amplitude(0.01, 3)
    assert abs(got - want) <= 1e-15
    assert abs(got - 1.727e-2) <= 1e-5


def test_tail_symmetric_point():
    assert em.majority_tail_amplitude(0.5, 3) == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_tail_matches_enumeration_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        nu = int(rng.choice([1, 3, 5, 9, 15, 21]))
        p = float(rng.uniform(0, 1))
        assert em.majority_tail_amplitude(p, nu) == pytest.approx(
            enumeration_tail(p, nu), abs=1e-13)


def test_tail_matches_mpmath_oracle():
    # 60-digit binomial sums, down to deep tails: 5e-4 at nu=401 has an
    # amplitude near 1e-271 although p^(m/2) alone is below the doubles.
    mpmath = pytest.importorskip("mpmath")
    tiny = np.finfo(float).tiny
    with mpmath.workdps(60):
        for nu in (1, 3, 11, 51, 201, 401):
            for p in (1e-300, 1e-9, 5e-4, 0.03, 0.3, 0.5, 0.77, 1.0 - 1e-9):
                x = mpmath.mpf(p)
                want = mpmath.sqrt(mpmath.fsum(
                    mpmath.binomial(nu, k) * x ** k * (1 - x) ** (nu - k)
                    for k in range(nu // 2 + 1, nu + 1)))
                got = em.majority_tail_amplitude(p, nu)
                if want >= tiny:
                    assert abs(got - want) <= 1e-14 * want, (nu, p)
                else:
                    assert got < tiny, (nu, p)


def test_tail_rejects_nu_beyond_double_binomials():
    with pytest.raises(ValueError, match="overflows"):
        em.majority_tail_amplitude(0.1, 2001)


def test_import_leaves_scipy_unloaded():
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    code = "import sys, eigenmark; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_even_nu_rejected():
    with pytest.raises(ValueError, match="odd"):
        em.majority_tail_amplitude(0.1, 4)
    with pytest.raises(ValueError, match="probability"):
        em.majority_tail_amplitude(1.5, 3)


@pytest.mark.parametrize("nu", [3.7, 3.0, True, np.float64(3.0)],
                         ids=["fraction", "integral_float", "bool", "numpy_float"])
def test_non_integer_nu_rejected(nu):
    # A fraction was truncated (3.7 gave nu=3's tail) and True read as 1.
    with pytest.raises(TypeError, match="integer"):
        em.majority_tail_amplitude(0.1, nu)
    # The envelope truncated too: 3.7 gave nu=3's value and True nu=1's.
    with pytest.raises(TypeError, match="integer"):
        voting.hoeffding_amplitude_bound(nu)


def test_numpy_integer_nu_accepted():
    assert em.majority_tail_amplitude(0.1, np.int64(3)) == em.majority_tail_amplitude(0.1, 3)


def test_hoeffding_bound_values():
    assert em.hoeffding_amplitude_bound(16) == pytest.approx(math.exp(-4), rel=1e-12)
    assert abs(em.hoeffding_amplitude_bound(16) - 1.832e-2) <= 1e-5
    assert em.hoeffding_amplitude_bound(4) == pytest.approx(0.3679, abs=1e-4)
    with pytest.raises(ValueError):
        em.hoeffding_amplitude_bound(0)


def _small_voting_setup(mu=2, window=0):
    layout = em.WorkspaceLayout(mu=mu, window=window)
    spec = em.SpectralUnitary(dim=2, eigenphases=(0.02, 2.1), delta=1.9)
    target = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)
    op = em.build_pea(em.build_shifted(spec, target), layout)
    return spec, target, layout, op


def test_tensor_nu1_equals_estimator():
    spec, target, layout, op = _small_voting_setup()
    h = em.build_h_tensor(target.lambdas, 1, layout)
    assert np.abs(em.dense_materialize(h) - em.dense_materialize(op)).max() <= 1e-13


@pytest.mark.parametrize("dtype", [np.complex128, EXTENDED], ids=["complex128", "extended"])
def test_tensor_equals_kronecker_power_of_the_estimator(dtype):
    # Oracle: the dense estimation operator M on main (x) one register,
    # embedded once per register (identity on the others) and multiplied
    # out, is sum_i P_i (x) V_i^(x)3 for the eigenprojectors P_i.  The
    # tensor, built from the eigenphases and turned once by the Haar
    # eigenbasis, must equal it on the joint dimension 2 * 4^3 = 128.
    layout = em.WorkspaceLayout(mu=2, window=0)
    basis = em.haar_unitary(np.random.default_rng(3), 2)
    spec = em.SpectralUnitary(dim=2, eigenphases=(0.02, 2.1), eigenbasis=basis, delta=1.9)
    target = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)
    shifted = em.build_shifted(spec, target)
    wdim, nu = layout.work_dim, 3
    m = em.build_pea(shifted, layout).apply_to(np.eye(2 * wdim, dtype=dtype))
    m = m.reshape(2, wdim, 2, wdim)
    eye = np.eye(wdim)
    embedded = [np.einsum("aibj,kl,mn->aikmbjln", m, eye, eye),
                np.einsum("akbl,ij,mn->aikmbjln", m, eye, eye),
                np.einsum("ambn,ij,kl->aikmbjln", m, eye, eye)]
    want = np.eye(2 * wdim ** nu, dtype=dtype)
    for factor in embedded:
        want = factor.reshape(want.shape) @ want
    h = in_frame(em.build_h_tensor(shifted.eigensystem[0], nu, layout), basis,
                wdim ** nu)
    got = h.apply_to(np.eye(h.dim, dtype=dtype))
    assert got.dtype == dtype
    assert np.abs(got - want).max() <= 1e-13


def test_tensor_grid_aligned_has_no_loss():
    layout = em.WorkspaceLayout(mu=2, window=0)
    spec = em.SpectralUnitary(dim=2, eigenphases=(0.0, np.pi), delta=3.0)
    target = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)
    h = em.build_h_tensor(target.lambdas, 3, layout)
    majority = em.majority_projector(layout.z_window(), 3)
    work = np.zeros(layout.work_dim ** 3, complex)
    work[0] = 1.0
    out = h.apply_to(np.outer(spec.basis_column(0), work).ravel())
    assert np.linalg.norm(out.reshape(spec.dim, -1)[:, ~majority.mask()]) <= 1e-12


def test_tensor_matches_binomial_oracle():
    spec, target, layout, op = _small_voting_setup(mu=3, window=1)
    etas = em.measure_eta(op, spec, target, layout)
    for nu in (1, 3):
        h = em.build_h_tensor(target.lambdas, nu, layout)
        majority = em.majority_projector(layout.z_window(), nu)
        for entry in etas.entries:
            work = np.zeros(layout.work_dim ** nu, complex)
            work[0] = 1.0
            out = h.apply_to(np.outer(spec.basis_column(entry.index), work).ravel())
            lose = ~majority.mask() if entry.marked else majority.mask()
            got = float(np.linalg.norm(out.reshape(spec.dim, -1)[:, lose]))
            want = enumeration_tail(entry.eta ** 2, nu)
            assert abs(got - want) <= 1e-10


def test_tensor_charges_nu_estimator_applications():
    spec, target, layout, _op = _small_voting_setup()
    h = em.build_h_tensor(target.lambdas, 3, layout)
    tally = em.Tally()
    work = np.zeros(layout.work_dim ** 3, complex)
    work[0] = 1.0
    h.apply_to(np.outer(spec.basis_column(0), work).ravel(), tally)
    assert tally.get("P") == 3
    assert tally.get("U") == 3 * layout.work_dim


def test_tensor_dimension_guard():
    _spec, target, layout, _op = _small_voting_setup(mu=2)
    with pytest.raises(ValueError, match="guard"):
        em.build_h_tensor(target.lambdas, 11, layout)


@pytest.mark.parametrize("nu", [2 ** 61 + 1, 19])
def test_tensor_guard_never_forms_a_huge_power(nu):
    # 2^mu >= 2, so nu * mu bits over the guard's 18 are rejected before
    # (2^mu)^nu is formed; 2^61 + 1 registers take no longer than 19.
    window = em.WorkspaceLayout(3, 1).z_window()
    with pytest.raises(ValueError, match="exceeds tensor guard"):
        voting.check_joint_dim(1, window.dim, nu)
    with pytest.raises(ValueError, match="exceeds tensor guard"):
        em.majority_projector(window, nu)
    with pytest.raises(ValueError, match="exceeds tensor guard"):
        em.majority_projector(em.SubspaceProjector(2, (0,)), nu)
    # At the guard exactly: 2 * 2^17 is in, one more register is not.
    assert voting.check_joint_dim(2, 2, 17) == voting.TENSOR_GUARD
    with pytest.raises(ValueError, match="exceeds tensor guard"):
        voting.check_joint_dim(2, 2, 18)


def test_majority_projector_membership():
    window = em.SubspaceProjector(2, (0,))
    maj = em.majority_projector(window, 3)
    # Basis index packs registers big-endian: (z1, z2, z3) -> 4 z1 + 2 z2 + z3.
    # In-window register means bit 0, so majority-in-window = at most one 1 bit.
    want = tuple(i for i in range(8) if bin(i).count("1") <= 1)
    assert tuple(np.flatnonzero(maj.mask())) == want


@pytest.mark.parametrize("mu, nu", [(2, 3), (3, 3), (2, 5)])
def test_majority_projector_matches_a_brute_force_count(mu, nu):
    # Registers pack big-endian into the joint index; a direction is a
    # member when more than nu/2 registers read inside the window.
    zwindow = em.WorkspaceLayout(mu, 1).z_window()
    wdim, inside = zwindow.dim, zwindow.mask()
    want = [sum(bool(inside[z]) for z in regs) > nu // 2
            for regs in itertools.product(range(wdim), repeat=nu)]
    got = em.majority_projector(zwindow, nu).mask()
    assert np.array_equal(got, want)
    assert not got.flags.writeable

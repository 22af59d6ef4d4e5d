import collections
import functools
import itertools
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest

import eigenmark as em
from eigenmark import audit, pea
from eigenmark.spectral import wrap_angle
from eigenmark.statevec import EXTENDED, real_dtype

from conftest import assert_tables_built_once_under_threads

LONG = real_dtype(EXTENDED).type
needs_extended = pytest.mark.skipif(EXTENDED is np.complex128,
                                    reason="no extended precision on this platform")


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


def mass_per_term_modulo(lam, mu: int, window: int) -> np.ndarray:
    """Reference: window_response_mass as first written, one int64 modulo
    per term and a new temporary per step.  The in-place kernel must
    match it bit for bit."""
    wdim = 2 ** mu
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    zs = em.WorkspaceLayout(mu, window).window_indices()
    k = np.round(lam * (wdim / (2 * np.pi)))
    r = (lam - k * (pea._TWO_PI_HI / wdim)) - k * ((2 * np.pi - pea._TWO_PI_HI) / wdim)
    d = (k.astype(np.int64)[:, None] - zs + wdim // 2) % wdim - wdim // 2
    u = r[:, None] + d * (2 * np.pi / wdim)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin((0.5 * wdim) * r)[:, None] / (wdim * np.sin(0.5 * u))
    ratio = np.where(u == 0.0, 1.0, ratio)
    return (ratio * ratio).sum(axis=1)


def box_grid_from_table(mu: int, window: int, lo: float, hi: float, grid_per_bin: int):
    """Reference: _box_grid as first written, its Fejér table formed as one
    expression and summed into a separate prefix buffer."""
    wdim, g = 2 ** mu, grid_per_bin
    step = 2 * np.pi / (wdim * g)
    n0, n1 = int(np.floor(lo / step)) + 1, int(np.ceil(hi / step)) - 1
    a0, span = n0 // g, max(0, n1 // g - n0 // g + 1)
    rows = (np.arange(a0 - window, a0 + span + window) + wdim // 2) % wdim - wdim // 2
    cols = np.arange(g) / g
    with np.errstate(divide="ignore", invalid="ignore"):
        table = (np.sin(np.pi * cols) / (wdim * np.sin((rows[:, None] + cols) * np.pi / wdim))) ** 2
    table[rows == 0, 0] = 1.0
    prefix = np.zeros((len(rows) + 1, g))
    np.cumsum(table, axis=0, out=prefix[1:])
    inside = (prefix[2 * window + 1:] - prefix[:span]).ravel()[n0 - a0 * g:n1 - a0 * g + 1]
    return np.arange(n0, n1 + 1) * step, inside


def two_phase_model(lam_marked, lam_unmarked, phi=np.pi):
    gap = abs(wrap_angle(lam_unmarked - lam_marked)) * (1 - 1e-9)
    spec = em.SpectralUnitary(dim=2, eigenphases=(lam_marked, lam_unmarked), delta=gap)
    b = min(0.25, max(0.05, 1.5 * abs(lam_marked) / gap))
    target = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=phi, b=b)
    return spec, target


def test_layout_window_partition():
    layout = em.WorkspaceLayout(mu=4, window=3)
    z = layout.z_window()
    assert set(np.flatnonzero(z.mask())) == {0, 1, 2, 3, 13, 14, 15}
    assert set(np.flatnonzero(z.mask())) | set(np.flatnonzero(z.complement().mask())) == set(range(16))
    with pytest.raises(ValueError, match="window"):
        em.WorkspaceLayout(mu=4, window=8)


def test_eigenphase_on_grid_stays_put():
    # lam = 0 for the marked direction: P(|psi>|0>) = |psi>|0> exactly
    spec, target = two_phase_model(0.0, np.pi * 5 / 8)
    layout = em.WorkspaceLayout(mu=1, window=0)
    op = em.build_pea(em.build_shifted(spec, target), layout)
    state = np.outer(spec.basis_column(0), layout.sigma_state()).ravel()
    out = op.apply_to(state)
    assert np.abs(out - state).max() <= 1e-12


def test_mu1_pi_lands_on_one():
    # H then phase -1 on |1> then H sends |0> to |1>: the lam = pi
    # eigendirection ends exactly in workspace |1>.
    spec, target = two_phase_model(0.0, np.pi)
    layout = em.WorkspaceLayout(mu=1, window=0)
    op = em.build_pea(em.build_shifted(spec, target), layout)
    out = op.apply_to(np.outer(spec.basis_column(1), layout.sigma_state()).ravel())
    hand = np.array([[1, 1], [1, -1]]) / 2.0 @ np.array([1, -1.0])  # H.diag(1,-1).H |0>
    np.testing.assert_allclose(out.reshape(2, layout.work_dim)[1], hand, atol=1e-12)
    report = em.measure_eta(op, spec, target, layout)
    assert report.eta_unmarked <= 1e-15
    assert report.eta <= 1e-15


def test_mu3_grid_phase_lands_on_z5():
    spec, target = two_phase_model(0.0, 2 * np.pi * 5 / 8)
    layout = em.WorkspaceLayout(mu=3, window=1)
    op = em.build_pea(em.build_shifted(spec, target), layout)
    out = op.apply_to(np.outer(spec.basis_column(1), layout.sigma_state()).ravel())
    assert abs(abs(out.reshape(2, layout.work_dim)[1, 5]) - 1.0) <= 1e-12


def test_pea_cost_convention():
    spec, target = two_phase_model(0.0, np.pi)
    layout = em.WorkspaceLayout(mu=5, window=2)
    op = em.build_pea(em.build_shifted(spec, target), layout)
    tally = em.Tally()
    state = np.outer(spec.basis_column(0), layout.sigma_state()).ravel()
    op.apply_to(state, tally)
    assert tally.get("U") == 2 ** 5
    assert tally.get("P") == 1
    op.adjoint_apply_to(state, tally)
    assert tally.get("U") == 2 ** 6
    assert tally.get("P") == 2


def test_pea_needs_an_operator_with_eigensystem():
    shifted = em.from_matrix(np.diag(np.exp(1j * np.array([0.01, 2.0]))))
    with pytest.raises(ValueError, match="eigensystem"):
        em.build_pea(shifted, em.WorkspaceLayout(mu=3, window=1))


@functools.cache
def kron_hadamard_case(mu: int):
    """(x, H x along axis 1) for x of shape (3, 2^mu, 3), with H the dense
    Kronecker power of H_2.  Each real and imaginary part of x is a 60-bit
    integer times 2^-60, more bits than float64 holds.  The dense sums run
    exactly on 20-bit limbs in float64 and are combined in long double."""
    wdim = 2 ** mu
    parts = np.random.default_rng(mu).integers(-2 ** 59, 2 ** 59, size=(2, 3, wdim, 3))
    limbs = (parts & (2 ** 20 - 1), (parts >> 20) & (2 ** 20 - 1), parts >> 40)
    dense = functools.reduce(np.kron, [np.array([[1, 1], [1, -1]], dtype=np.int8)] * mu)
    sums = np.zeros(parts.shape, dtype=LONG)
    for rows in range(0, wdim, 512):
        block = dense[rows:rows + 512].astype(float)
        for shift, limb in zip((0, 20, 40), limbs):
            sums[:, :, rows:rows + 512] += (block @ limb.astype(float)).astype(LONG) * LONG(2) ** shift
    x, want = (np.empty((3, wdim, 3), dtype=EXTENDED) for _ in range(2))
    x.real, x.imag = parts.astype(LONG) * LONG(2) ** -60
    want.real, want.imag = sums * LONG(2) ** -60 / np.sqrt(LONG(wdim))
    return x, want


@pytest.mark.parametrize("mu", range(1, 13))
def test_hadamard_matches_dense_kronecker_power(mu):
    # Every dtype runs the same mu butterfly stages and one scaling.
    # 1e-17 needs long-double arithmetic throughout: the complex128
    # transform of the same input misses it.
    x, want = kron_hadamard_case(mu)
    cases = [(np.complex128, 1e-13)]
    if EXTENDED is not np.complex128:
        cases.append((EXTENDED, 1e-17))
        assert np.abs(pea._fwht_axis1(x.astype(np.complex128)) - want).max() > 1e-17
    for m, k in itertools.product((1, 3), (1, 3)):
        for dtype, tol in cases:
            got = pea._fwht_axis1(x[:m, :, :k].astype(dtype))
            assert got.dtype == dtype and got.shape == (m, 2 ** mu, k)
            assert np.abs(got - want[:m, :, :k]).max() <= tol


def butterflies_on_every_row(a: np.ndarray) -> np.ndarray:
    """Reference: _fwht_axis1 as it was before it passed over rows of +0.0,
    the butterflies and the scaling run on every row."""
    out = np.array(a, order="C")
    flat = out.view(real_dtype(a.dtype))
    for bit in range(a.shape[1].bit_length() - 1):
        pairs = flat.reshape(-1, 2, flat.shape[2] << bit)
        x, y = pairs[:, 0], pairs[:, 1]
        diff = x - y
        x += y
        y[...] = diff
    flat *= 1 / np.sqrt(flat.dtype.type(a.shape[1]))
    return out


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal dtype, values and sign bits (so +0.0 and -0.0 differ), part by
    part: a long double's padding bytes carry no value."""
    return got.dtype == want.dtype and all(
        np.array_equal(part(got), part(want))
        and np.array_equal(np.signbit(part(got)), np.signbit(part(want)))
        for part in (np.real, np.imag))


@pytest.mark.parametrize("dtype", [np.complex128, EXTENDED], ids=["complex128", "extended"])
def test_hadamard_of_zero_rows_equals_butterflies_on_every_row(dtype):
    # A row of +0.0 skips the butterflies and must come out +0.0, as the
    # butterflies leave it; a -0.0 makes a row live (-0 + -0 = -0 but
    # -0 - -0 = +0), whether the whole row or one entry.
    rng = np.random.default_rng(4)
    x = (rng.normal(size=(4, 16, 3)) + 1j * rng.normal(size=(4, 16, 3))).astype(dtype)
    cases = {"all zero": np.zeros_like(x)}
    cases["one row"] = np.zeros_like(x)
    cases["one row"][2] = x[2]
    cases["-0.0 row"] = cases["one row"].copy()
    cases["-0.0 row"][0].real = -0.0
    cases["-0.0 row"][0].imag = -0.0
    cases["one -0.0"] = cases["one row"].copy()
    cases["one -0.0"][3, 5, 1] = complex(0.0, -0.0)
    cases["zero rows between"] = x.copy()
    cases["zero rows between"][1:3] = 0.0
    cases["none zero"] = x
    for name, case in cases.items():
        want = butterflies_on_every_row(case)
        assert same_bits(pea._fwht_axis1(case), want), name
        op = pea.walsh_hadamard(case.shape[0] * 16, 16)
        got = op.apply_to(case.reshape(-1, 3))
        assert same_bits(got, want.reshape(-1, 3)), name
    # Passed over, the -0.0 row would have kept its signs.
    assert not np.signbit(butterflies_on_every_row(cases["-0.0 row"])[0].real).all()


@pytest.mark.parametrize("nu", [1, 3])
@pytest.mark.parametrize("dtype, tol", [
    pytest.param(np.complex128, 1e-14, id="complex128"),
    pytest.param(EXTENDED, 1e-17, id="extended", marks=needs_extended)])
def test_walsh_hadamard_is_the_dense_kronecker_power(nu, dtype, tol):
    # H on nu registers of W = 8 amplitudes is H_W^(x nu) on the W^nu
    # amplitudes of every main row, its own inverse and adjoint, and it
    # charges nothing.  The dense product runs in the real dtype.
    real = real_dtype(dtype)
    work_dim, main_dim = 8 ** nu, 2
    dense = functools.reduce(np.kron, [np.array([[1, 1], [1, -1]], dtype=np.int8)] * (3 * nu))
    op = pea.walsh_hadamard(main_dim * work_dim, work_dim)
    rng = np.random.default_rng(nu)
    x = (rng.normal(size=(main_dim, work_dim, 2))
         + 1j * rng.normal(size=(main_dim, work_dim, 2))).astype(dtype)
    want = np.empty_like(x)
    for part in ("real", "imag"):
        rows = getattr(x, part).astype(real)
        setattr(want, part, np.einsum("zy,iyk->izk", dense.astype(real), rows)
                / np.sqrt(real.type(work_dim)))
    tally = em.Tally()
    got = op.apply_to(x.reshape(-1, 2), tally)
    assert got.dtype == dtype and not tally.counts
    assert np.abs(got.reshape(x.shape) - want).max() <= tol
    assert np.array_equal(op.adjoint_apply_to(x.reshape(-1, 2)), got)
    assert np.abs(op.apply_to(got) - x.reshape(-1, 2)).max() <= tol


def test_walsh_hadamard_needs_a_power_of_two_that_tiles():
    for dim, work_dim, says in ((24, 12, "power of two"), (24, 0, "power of two"),
                                (24, 16, "not a whole multiple"), (4, 8, "not a whole multiple")):
        with pytest.raises(ValueError, match=says):
            pea.walsh_hadamard(dim, work_dim)


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_estimation_factors_are_only_the_registers_v_f(nu):
    # One V_F factor per register, each charging one U^(2^mu) ladder and
    # one estimation application: no H hides in the tuple.
    layout = em.WorkspaceLayout(3, 1)
    factors = pea.estimation_factors((0.3, -2.9), layout, nu)
    assert len(factors) == nu
    for factor in factors:
        assert factor.cost == (("U", 8), ("P", 1))
        assert factor.dim == 2 * 8 ** nu


def test_estimation_table_is_built_once_under_threads(monkeypatch):
    # Several threads apply one fresh V_F at once: its mask table is built
    # once, and every output equals a serial application's.
    lam, layout = (0.3, -2.9), em.WorkspaceLayout(10, 3)
    rng = np.random.default_rng(8)
    x = (rng.normal(size=2 * layout.work_dim)
         + 1j * rng.normal(size=2 * layout.work_dim)).astype(EXTENDED)
    assert_tables_built_once_under_threads(
        monkeypatch, lambda: pea.estimation_factors(lam, layout)[0], x)


def test_measure_eta_rejects_a_target_resolved_against_another_model():
    # The swapped model's target marks index 1, the unmarked phase 2.0 of
    # spec: measured against it, eta read 0.9986 where spec's own reads 0.0661.
    spec = em.SpectralUnitary(dim=2, eigenphases=(0.01, 2.0), delta=1.5)
    swapped = em.SpectralUnitary(dim=2, eigenphases=(2.0, 0.01), delta=1.5)
    target = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)
    other = em.MarkTarget.resolve(swapped, psi_prime=0.0, phi=np.pi, b=0.05)
    layout = em.WorkspaceLayout(6, 4)
    pea_op = em.build_pea(em.build_shifted(spec, target), layout)
    assert em.measure_eta(pea_op, spec, target, layout).eta == pytest.approx(0.0661, abs=1e-4)
    with pytest.raises(ValueError, match="different spectral model"):
        em.measure_eta(pea_op, spec, other, layout)


@pytest.mark.parametrize("dtype", [np.complex64, np.float64])
def test_measure_eta_rejects_other_amplitude_dtypes(dtype):
    # complex64 used to compute in complex128 and say nothing.
    spec = em.SpectralUnitary(dim=2, eigenphases=(0.01, 2.0), delta=1.5)
    target = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)
    layout = em.WorkspaceLayout(8, 14)
    pea_op = em.build_pea(em.build_shifted(spec, target), layout)
    with pytest.raises(ValueError, match=f"amplitude dtype {np.dtype(dtype).name}"):
        em.measure_eta(pea_op, spec, target, layout, dtype=dtype)


@needs_extended
@pytest.mark.parametrize("mu", [1, 4, 8])
def test_estimation_factor_vf_matches_dense_transform(mu):
    # V_F = F . diag(mask) on each main row, F the unitary DFT with
    # e^{-2 pi i j z / W} and mask the controlled powers e^{i lam z}; the
    # adjoint is diag(conj mask) . F^+.  Dense sums are pairwise.
    lam = np.array([0.3, -2.9, 1.7])
    wdim = 2 ** mu
    v_f, = pea.estimation_factors(lam, em.WorkspaceLayout(mu, 0))
    z = np.arange(wdim).astype(LONG)
    turns = (np.outer(np.arange(wdim), np.arange(wdim)) % wdim).astype(LONG)
    dft = np.exp(-1j * (2 * np.arccos(LONG(-1)) / wdim) * turns) / np.sqrt(LONG(wdim))
    mask = np.exp(1j * lam.astype(LONG)[:, None] * z[None, :])
    rng = np.random.default_rng(mu)
    x = (rng.normal(size=(3, wdim, 2)) + 1j * rng.normal(size=(3, wdim, 2))).astype(EXTENDED)
    x += 2.0 ** -60 * rng.normal(size=x.shape)

    def rows_times(matrix, cols):
        return (matrix[None, :, None, :] * np.moveaxis(cols, 1, 2)[:, None]).sum(axis=-1)

    forward = rows_times(dft, mask[:, :, None] * x)
    adjoint = mask.conj()[:, :, None] * rows_times(dft.conj().T, x)
    got = v_f.apply_to(x.reshape(-1, 2))
    back = v_f.adjoint_apply_to(x.reshape(-1, 2))
    assert got.dtype == back.dtype == EXTENDED
    assert np.abs(got - forward.reshape(-1, 2)).max() <= 1e-17
    assert np.abs(back - adjoint.reshape(-1, 2)).max() <= 1e-17


def test_kernel_matches_brute_force_oracle():
    rng = np.random.default_rng(11)
    for mu, window in ((2, 0), (4, 3), (6, 7)):
        for lam in rng.uniform(-np.pi, np.pi, size=4):
            got = float(pea.window_response_mass(lam, mu, window)[0])
            want = brute_window_mass(lam, mu, window)
            assert abs(got - want) <= 1e-12


def kernel_cases():
    """(mu, window, lam) covering the kernel's branches: bins that wrap past
    +-W/2 (phases near +-pi, the widest window, and the whole bin
    W/2 - window, whose last element sits exactly W/2 bins on), exact bins
    (lam = 0 and the bin centres), window 0 and 2^(mu-1) - 1, phases
    outside (-pi, pi], and no phase at all."""
    rng = np.random.default_rng(5)
    for mu in (1, 2, 3, 5, 8, 11):
        wdim = 2 ** mu
        bins = 2 * np.pi / wdim * np.arange(-wdim // 2, wdim // 2 + 1)
        lam = np.concatenate(([0.0, -0.0, 7.0, -9.5, np.pi, -np.pi], bins, bins + 1e-3 / wdim,
                              rng.uniform(-np.pi, np.pi, 16)))
        for window in sorted({0, wdim // 4, wdim // 2 - 1} | ({1} if mu > 1 else set())):
            edge = 2 * np.pi / wdim * (wdim // 2 - window + np.linspace(-0.5, 0.5, 401))
            yield mu, window, np.concatenate((lam, edge, -edge))
            yield mu, window, np.array([])


def test_kernel_is_bit_identical_to_the_per_term_modulo_form():
    for mu, window, lam in kernel_cases():
        got = pea.window_response_mass(lam, mu, window)
        want = mass_per_term_modulo(lam, mu, window)
        assert got.dtype == want.dtype and np.array_equal(got, want), (mu, window)
    for lam in (0.0, 7.0, -9.5, np.pi - 1e-3, -np.pi):
        for mu, window in ((4, 0), (4, 7), (6, 31)):
            assert np.array_equal(pea.window_response_mass(lam, mu, window),
                                  mass_per_term_modulo(lam, mu, window)), (lam, mu, window)


def test_box_grid_is_bit_identical_to_the_table_expression():
    for mu in (1, 3, 6, 9):
        wdim = 2 ** mu
        for window in sorted({0, wdim // 2 - 1} | ({1} if mu > 1 else set())):
            for lo, hi in ((0.0, 0.3), (-0.4, 0.9), (np.pi - 0.5, np.pi), (-np.pi, np.pi)):
                got = pea._box_grid(mu, window, lo, hi)
                want = box_grid_from_table(mu, window, lo, hi, pea.GRID_PER_BIN)
                assert all(np.array_equal(x, y) for x, y in zip(got, want)), \
                    (mu, window, lo, hi)


def test_box_grids_read_through_a_search_store_equal_fresh_calls(monkeypatch):
    # A window search's scans, in both bands, read one mu's box-table rows
    # from one store, which grows left and right, or past +-pi where the
    # rows wrap; every grid they read equals a fresh call's bit for bit
    # (equal float64 bytes, so equal hex).
    reads = []
    box_grid = pea._box_grid

    def recording(mu, window, lo, hi, *args, **kwargs):
        got = box_grid(mu, window, lo, hi, *args, **kwargs)
        reads.append(((mu, window, lo, hi), got))
        return got

    monkeypatch.setattr(pea, "_box_grid", recording)
    for mu in (2, 3, 5, 8, 11, 14):
        for delta, b in ((0.4, 0.05), (3.0, 0.05), (np.pi, 0.25), (1.3, 0.2)):
            pea.best_window(mu, delta, b)
    assert em.calibrate_workspace(3.0, 0.05) == COLD_SEARCH_RESULTS[1]
    monkeypatch.undo()
    for args, (lams, inside) in reads:
        want_lams, want_inside = pea._box_grid(*args)
        assert lams.tobytes() == want_lams.tobytes(), args
        assert inside.tobytes() == want_inside.tobytes(), args


def test_kernel_domain_is_checked():
    # A fractional window would sum a mass above 1, and a fractional mu
    # would build a float work_dim.
    with pytest.raises(TypeError, match="window"):
        pea.window_response_mass(0.1, 5, 2.5)
    with pytest.raises(TypeError, match="mu"):
        pea.window_response_mass(0.1, 5.0, 2)
    with pytest.raises(TypeError, match="mu"):
        em.WorkspaceLayout(5.5, 3)
    with pytest.raises(TypeError, match="window"):
        em.WorkspaceLayout(5, 3.0)
    with pytest.raises(ValueError, match=r"shape \(2, 2\)"):
        pea.window_response_mass(np.zeros((2, 2)), 5, 2)
    # The kernel is exact only for bins |k| <= 2^24: 1e10 at mu = 20 sits
    # in bin 1.7e15, where it read 7.2e-11; 1e300 read 0.0021, NaN nan.
    for lam, mu in ((np.nan, 5), (np.inf, 5), (-np.inf, 11), (1e300, 5), (1e10, 20),
                    ([0.1, np.nan], 5)):
        with pytest.raises(ValueError, match=r"\|k\| <= 2\^24"):
            pea.window_response_mass(lam, mu, 3)
    assert np.isfinite(pea.window_response_mass(2 ** 24 * 2 * np.pi / 2 ** 20, 20, 3)).all()
    layout = em.WorkspaceLayout(np.int64(5), np.int64(3))
    assert type(layout.mu) is int and type(layout.work_dim) is int
    assert pea.window_response_mass(0.1, np.int64(5), np.int64(3)).shape == (1,)


def test_kernel_matches_simulation():
    check = audit.check_pea_kernel_vs_simulation(em.WorkspaceLayout(mu=5, window=3),
                                                 [two_phase_model(0.003, 1.9)], 1e-12)
    assert check.ok, check.detail


def test_eta_report_shape_and_range(setup_04):
    report = setup_04["eta_report"]
    assert all(0.0 <= e.eta <= 1.0 for e in report.entries)
    assert report.eta == max(report.eta_marked, report.eta_unmarked)
    marked_flags = {e.index: e.marked for e in report.entries}
    assert marked_flags[0] and not marked_flags[1]


@pytest.mark.parametrize("mu", [2, 4, 6, 9, 14])
def test_box_sums_match_kernel(mu):
    # Intervals at 0, in the middle and at pi, so that with the widest
    # window the boxes wrap past 0 and past +-pi.
    rng = np.random.default_rng(mu)
    wdim = 2 ** mu
    for window in sorted({0, 1, wdim // 4, wdim // 2 - 1}):
        for lo, hi in ((0.0, 0.3), (1.0, 1.0 + 40 * 2 * np.pi / wdim), (np.pi - 0.3, np.pi)):
            lams, inside = pea._box_grid(mu, window, lo, hi)
            assert np.all((lams > lo) & (lams < hi))
            assert np.allclose(np.diff(lams), 2 * np.pi / wdim / pea.GRID_PER_BIN)
            picks = np.unique(np.concatenate(([0, len(lams) - 1],
                                              rng.integers(0, len(lams), 64))))
            exact = pea.window_response_mass(lams[picks], mu, window)
            assert np.abs(inside[picks] - exact).max() <= 1e-12


def brute_best_window(mu: int, delta: float, b: float):
    """Independent oracle: every window, exact kernel on dense uniform grids
    over the whole marked band and the whole unmarked arc."""
    marked = np.linspace(0.0, b * delta, 2001)
    unmarked = np.linspace(delta / 2.0, np.pi, 20001)
    etas = [max(np.sqrt(max(0.0, (1.0 - pea.window_response_mass(marked, mu, w)).max())),
                np.sqrt(pea.window_response_mass(unmarked, mu, w).max()))
            for w in range(2 ** (mu - 1))]
    return int(np.argmin(etas)), min(etas)


@pytest.mark.parametrize("mu,delta,b", [(3, 2.5, 0.25), (4, 3.0, 0.05), (5, 1.0, 0.1),
                                        (6, 2.0, 0.05), (7, 3.0, 0.05)])
def test_best_window_matches_brute_force(mu, delta, b):
    window, eta = brute_best_window(mu, delta, b)
    choice = em.best_window(mu, delta, b)
    assert choice.window == window
    # The dense grids only sample the worst case that best_window refines.
    assert eta * (1 - 1e-12) <= choice.eta <= eta * (1 + 1e-4)


def test_crossing_window_finds_the_first_crossed_window():
    # Every bracket: each wmax, each crossing (wmax + 1: none crosses, which
    # gives wmax) and each start, clamped ones included.  The search probes
    # only windows in [0, wmax], so the start sets the cost alone.
    for wmax in range(17):
        for first in range(wmax + 2):
            for start in range(-2, wmax + 3):
                probed = []

                def crossed(w):
                    probed.append(w)
                    return w >= first

                assert pea._crossing_window(crossed, wmax, start) == min(first, wmax)
                assert all(0 <= w <= wmax for w in probed)


def test_best_window_rejects_mu_below_one():
    with pytest.raises(ValueError, match="mu 0 must be at least 1"):
        em.best_window(0, 0.4, 0.05)


@pytest.mark.parametrize("mu", [pea.MU_MAX + 1, 2 ** 70, int(1e308)],
                         ids=["above", "2**70", "1e308"])
def test_mu_above_the_ceiling_is_rejected_at_once(mu):
    # The kernel is exact only for bins |k| <= 2^24, i.e. mu <= 25; no
    # check forms 2^mu, so a huge mu is rejected as fast as mu = 26.
    with pytest.raises(ValueError, match="exceeds MU_MAX = 25"):
        em.WorkspaceLayout(mu, 0)
    with pytest.raises(ValueError, match="exceeds MU_MAX"):
        em.best_window(mu, 0.4, 0.05)
    with pytest.raises(ValueError, match="exceeds MU_MAX"):
        pea.window_response_mass(0.1, mu, 0)
    with pytest.raises(ValueError, match="outside"):
        em.WorkspaceLayout(5, mu)
    assert em.WorkspaceLayout(pea.MU_MAX, 2 ** (pea.MU_MAX - 1) - 1).mu == pea.MU_MAX


def test_calibration_searches_no_further_than_the_ceiling(monkeypatch):
    monkeypatch.setattr(pea, "MU_MAX", 4)
    result = em.calibrate_workspace(3.0, 0.05, mu_cap=30)
    assert not result.converged and result.mu <= 4
    assert result == em.calibrate_workspace(3.0, 0.05, mu_cap=4)


def test_capped_calibration_takes_each_floor_once(monkeypatch):
    # At (3.0, 0.05) no mu up to 4 converges, so every ruled-out mu is
    # searched too, from the floor window calibration already computed.
    floors = []
    eta_floor = pea._eta_floor
    monkeypatch.setattr(pea, "_eta_floor",
                        lambda mu, delta, b: floors.append(mu) or eta_floor(mu, delta, b))
    result = em.calibrate_workspace(3.0, 0.05, mu_cap=4)
    assert floors == [1, 2, 3, 4]
    assert result == pea.CalibrationResult(
        delta=3.0, b=0.05, eta_target=pea.ETA_TARGET_DEFAULT, mu=4, window=2,
        eta_marked=0.25559910449510137, eta_unmarked=0.20827628411358037,
        lam_marked=0.15000000000000002, lam_unmarked=1.7572305225385119, converged=False)
    assert asdict(em.best_window(4, 3.0, 0.05)).items() <= asdict(result).items()


def floor_samples(mu: int, delta: float, b: float):
    """Reference: _eta_floor's samples as its docstring states them, b*delta
    and 16 grid points within one bin below it (marked), delta/2 and 16
    within one bin above it (unmarked), all inside (0, pi)."""
    stride = pea.GRID_PER_BIN // 16
    step = 2 * np.pi / (2 ** mu * pea.GRID_PER_BIN)
    top, bottom = int(np.ceil(b * delta / step)) - 1, int(np.floor(delta / 2.0 / step)) + 1
    marked = np.arange(top, top - pea.GRID_PER_BIN, -stride) * step
    unmarked = np.arange(bottom, bottom + pea.GRID_PER_BIN, stride) * step
    return (np.concatenate(([b * delta], marked[marked > 0.0])),
            np.concatenate(([delta / 2.0], unmarked[unmarked < np.pi])))


def floor_at_split(mu: int, delta: float, b: float, split: int) -> float:
    """min(out(split - 1), in(split)) from per-window window_response_mass
    calls on floor_samples."""
    marked, unmarked = floor_samples(mu, delta, b)
    below = (1.0 - float(pea.window_response_mass(marked, mu, split - 1).min())
             if split > 0 else np.inf)
    covered = pea._covered_edge(mu, split, delta)
    inside = covered[1] if covered else float(pea.window_response_mass(unmarked, mu, split).max())
    return min(below, inside)


@pytest.mark.parametrize("delta,b", [(0.4, 0.05), (3.0, 0.05), (2.5, 0.045), (1.3, 0.2),
                                     (np.pi, 0.25), (0.3, 0.02)])
def test_floor_masses_equal_the_per_window_kernel(monkeypatch, delta, b):
    # The floor sums each probed window's terms out of one table that
    # grows with its gallop.  At every window the gallop probes, split
    # there once the gallop has run, the floor equals the per-window
    # kernel's, compared as hex.
    crossing = pea._crossing_window
    for mu in range(1, 15):
        probed = []
        monkeypatch.setattr(pea, "_crossing_window", lambda crossed, wmax, start: crossing(
            lambda w: probed.append(w) or crossed(w), wmax, start))
        floor, window = pea._eta_floor(mu, delta, b)
        assert floor.hex() == floor_at_split(mu, delta, b, window).hex()
        for split in sorted(set(probed) | {window - 1, window + 1} - {-1, 2 ** (mu - 1)}):
            monkeypatch.setattr(pea, "_crossing_window", lambda crossed, wmax, start: (
                crossing(crossed, wmax, start), split)[1])
            got, at = pea._eta_floor(mu, delta, b)
            assert (got.hex(), at) == (floor_at_split(mu, delta, b, split).hex(), split)


@pytest.mark.parametrize("args,kwargs,error,match", [
    # The grid density is the constant GRID_PER_BIN, not an argument.
    ((5, 1.0, 0.05), {"grid_per_bin": 0}, TypeError, "grid_per_bin"),
    ((5, 1.0, 0.05), {"grid_per_bin": 8.0}, TypeError, "grid_per_bin"),
    ((5, -1.0, 0.05), {}, ValueError, "delta"),
    ((5, 4.0, 0.05), {}, ValueError, "delta"),
    ((5, 1.0, 0.3), {}, ValueError, "b"),
    ((5.0, 1.0, 0.05), {}, TypeError, "mu"),
], ids=["grid0", "grid_float", "delta_negative", "delta_above_pi", "b_above_quarter",
        "mu_float"])
def test_best_window_checks_its_domain(args, kwargs, error, match):
    with pytest.raises(error, match=match):
        em.best_window(*args, **kwargs)


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
    assert (result.mu, result.window) == (11, 330)
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
    assert (calib.mu, calib.window) == (14, 370)
    assert calib.eta <= 2.0 ** -5
    report = setup_04["eta_report"]
    assert report.eta <= 2.0 ** -5
    assert abs(report.eta - calib.eta) <= 1e-9


# full_search's results, a best_window search at every mu from 1 up:
# calibration, which searches only the mu its floor keeps, must reproduce
# them bit for bit.
COLD_SEARCH_RESULTS = [
    em.CalibrationResult(delta=0.4, b=0.05, eta_target=0.03125, mu=14,
                         window=370, eta_marked=0.02359656793491829,
                         eta_unmarked=0.02358561443336071, lam_marked=0.01975001750960751,
                         lam_unmarked=0.2, converged=True),
    em.CalibrationResult(delta=3.0, b=0.05, eta_target=0.03125, mu=11,
                         window=330, eta_marked=0.023939823102641422,
                         eta_unmarked=0.023963771524191112, lam_marked=0.14879628992955776,
                         lam_unmarked=1.5017661561485083, converged=True),
    em.CalibrationResult(delta=0.05, b=0.05, eta_target=0.03125, mu=17,
                         window=370, eta_marked=0.023615759893543548,
                         eta_unmarked=0.023566427104158783, lam_marked=0.0024687521856850054,
                         lam_unmarked=0.025, converged=True),
]


@pytest.mark.parametrize("want", COLD_SEARCH_RESULTS, ids=["delta0.4", "delta3.0", "delta0.05"])
def test_calibration_matches_cold_search(want):
    assert em.calibrate_workspace(want.delta, want.b) == want


@pytest.mark.parametrize("want", COLD_SEARCH_RESULTS, ids=["delta0.4", "delta3.0", "delta0.05"])
@pytest.mark.parametrize("dtype", [np.complex128, EXTENDED], ids=["complex128", "extended"])
def test_measured_etas_equal_butterflies_on_every_row(monkeypatch, want, dtype):
    # measure_eta's unit directions leave one main row of two nonzero on
    # the verification model; the etas equal those of butterflies on
    # every row, compared as hex.
    spec, target = em.verification_model(want.delta, want.b, want.lam_marked,
                                         want.lam_unmarked)
    layout = want.layout()
    op = em.build_pea(em.build_shifted(spec, target), layout)
    got = em.measure_eta(op, spec, target, layout, dtype=dtype)
    monkeypatch.setattr(pea, "_fwht_axis1", butterflies_on_every_row)
    ref = em.measure_eta(op, spec, target, layout, dtype=dtype)
    assert [e.eta.hex() for e in got.entries] == [e.eta.hex() for e in ref.entries]
    assert abs(got.eta - want.eta) <= 1e-9


def test_calibration_probes_few_windows_per_mu(monkeypatch):
    # Each probed window costs two _sup_scan calls or more; a search from
    # window 0 probes 19 distinct windows at mu=14 here.  The eta floor
    # rules out mu 1-13 without a scan, and its window starts mu 14 next
    # to the crossing, whose pair is all the final choice reads.
    probed = collections.defaultdict(set)
    scan = pea._sup_scan

    def counted(mu, window, *args, **kwargs):
        probed[mu].add(window)
        return scan(mu, window, *args, **kwargs)

    monkeypatch.setattr(pea, "_sup_scan", counted)
    assert em.calibrate_workspace(0.4, 0.05).mu == 14
    assert sorted(probed) == [14]
    assert len(probed[14]) <= 3


def test_refinement_shares_kernel_calls(monkeypatch):
    # The three candidates are refined together: one kernel call for lo, hi
    # and their brackets, then one per step over every candidate.  Every
    # term, the floor's and the scans', is counted where it is computed:
    # 118,625 here, 515,403 when the floor summed each window afresh.
    calls = []
    kernel, scan = pea._mass_terms, pea._sup_scan
    per_scan = []

    def counted_kernel(lam, mu, offsets):
        calls.append(len(lam) * len(offsets))
        return kernel(lam, mu, offsets)

    def counted_scan(*args, **kwargs):
        before = len(calls)
        result = scan(*args, **kwargs)
        per_scan.append(len(calls) - before)
        return result

    monkeypatch.setattr(pea, "_mass_terms", counted_kernel)
    monkeypatch.setattr(pea, "_sup_scan", counted_scan)
    assert em.calibrate_workspace(0.4, 0.05) == COLD_SEARCH_RESULTS[0]
    assert per_scan and max(per_scan) <= 5
    assert sum(calls) < 130_000


def test_calibrations_on_two_threads_match_the_cold_search():
    # Each search keeps its floor table and row store to itself, so two
    # calibrations running at once, switching threads often, give the
    # single-thread results.
    wants = COLD_SEARCH_RESULTS[:2]
    start = threading.Barrier(len(wants), timeout=30)

    def run(want):
        start.wait()
        return em.calibrate_workspace(want.delta, want.b)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(wants)) as pool:
            got = list(pool.map(run, wants, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == wants


def full_search(delta, b, mu_cap=20):
    """Reference: a calibration that searches every mu from 1 up with
    best_window, stops at the first converged mu and otherwise keeps the
    best, the smallest mu on a tie."""
    eta_target = pea.ETA_TARGET_DEFAULT
    best = None
    for mu in range(1, mu_cap + 1):
        choice = em.best_window(mu, delta, b)
        candidate = em.CalibrationResult(delta=delta, b=b, eta_target=eta_target, mu=mu,
                                         converged=choice.eta <= eta_target, **asdict(choice))
        if best is None or candidate.eta < best.eta:
            best = candidate
        if candidate.converged:
            break
    return best


def seeded_pairs(seed, n, deltas, bs):
    rng = np.random.default_rng(seed)
    return [(float(rng.uniform(*deltas)), float(rng.uniform(*bs))) for _ in range(n)]


# The calibrate benchmark's seeded pairs (delta 2.2-2.8, b 0.045-0.065) and
# pairs drawn over the search's domain, at the default cap and at caps
# where no mu converges.
FLOOR_CASES = ([((want.delta, want.b), 20) for want in COLD_SEARCH_RESULTS]
               + [(pair, 20) for pair in seeded_pairs(1, 4, (2.2, 2.8), (0.045, 0.065))]
               + [(pair, 20) for pair in seeded_pairs(2, 20, (0.3, np.pi), (0.02, 0.25))]
               + [(pair, cap) for cap in (4, 8)
                  for pair in [(3.0, 0.05), (0.4, 0.05), *seeded_pairs(3, 2, (0.3, np.pi),
                                                                       (0.02, 0.25))]])


@pytest.mark.parametrize("pair,mu_cap", FLOOR_CASES)
def test_calibration_equals_the_full_per_mu_search(pair, mu_cap):
    # The floor only skips searches: every result, converged or not, is the
    # one a search at every mu gives.
    assert em.calibrate_workspace(*pair, mu_cap=mu_cap) == full_search(*pair, mu_cap)


@pytest.mark.parametrize("mus", [range(6, 11), [9, 7, 12, 12, 3]],
                         ids=["consecutive", "unordered"])
def test_scaling_constant_starts_each_mu_at_the_floor_window(monkeypatch, mus):
    probed = collections.defaultdict(set)
    scan = pea._sup_scan

    def counted(mu, window, *args, **kwargs):
        probed[mu].add(window)
        return scan(mu, window, *args, **kwargs)

    monkeypatch.setattr(pea, "_sup_scan", counted)
    _const, records = pea.scaling_constant(mus, delta=0.4, b=0.05)
    assert sorted(probed) == sorted(set(mus))
    assert max(len(windows) for windows in probed.values()) <= 3
    # Each record is best_window's.
    want = [em.best_window(mu, 0.4, 0.05) for mu in mus]
    assert [(r["mu"], r["window"], r["eta"]) for r in records] == [
        (mu, choice.window, choice.eta) for mu, choice in zip(mus, want)]


@pytest.mark.parametrize("mu,delta", [(9, 0.6), (9, 1.2), (9, 2.2), (9, 3.0), (11, 3.0),
                                      (14, 0.4), (17, 0.05)])
def test_best_window_starts_at_the_crossing_phase(monkeypatch, mu, delta):
    # The search starts where _eta_floor's samples cross, next to the
    # computed crossing, so only the pair the answer reads is probed; a
    # search from window 0 probes 11-19 windows here.
    probed = set()
    scan = pea._sup_scan

    def counted(mu, window, *args, **kwargs):
        probed.add(window)
        return scan(mu, window, *args, **kwargs)

    monkeypatch.setattr(pea, "_sup_scan", counted)
    em.best_window(mu, delta, 0.05)
    assert len(probed) <= 2


def test_calibration_takes_numpy_counts():
    # The counts come back as ints, so the result serialises to JSON.
    got = em.calibrate_workspace(3.0, 0.05, mu_cap=np.int64(12))
    assert got == COLD_SEARCH_RESULTS[1] and type(got.mu) is int
    assert json.loads(json.dumps(asdict(got))) == asdict(got)


def test_halving_delta_at_most_quadruples_workspace(calib_04):
    mus = {0.4: calib_04.mu}
    for delta in (0.2, 0.1, 0.05):
        mus[delta] = em.calibrate_workspace(delta, 0.05).mu
    for big, small in ((0.4, 0.2), (0.2, 0.1), (0.1, 0.05)):
        ratio = 2 ** mus[small] / 2 ** mus[big]
        assert 1 <= ratio <= 4


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
    with pytest.raises(TypeError, match="mu_cap"):
        em.calibrate_workspace(0.4, 0.05, mu_cap=8.0)

import csv
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import eigenmark as em
from eigenmark import audit, cli, marker, pea
from eigenmark.spectral import haar_unitary
from eigenmark.statevec import EXTENDED, real_dtype

from conftest import rotation_block


def block_diag_join(blocks):
    dim = sum(b.shape[0] for b in blocks)
    full = np.zeros((dim, dim), complex)
    at = 0
    for b in blocks:
        full[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]
    return em.from_matrix(full, cost=(("P", 1),))


def test_phi_zero_is_identity():
    window = em.SubspaceProjector(2, (0,))
    core = block_diag_join([rotation_block(0.2), rotation_block(0.7)])
    op = em.assemble_marker(core, 0.0, window)
    assert np.abs(em.dense_materialize(op) - np.eye(4)).max() <= 1e-12


def test_exact_core_acts_as_ideal_marker():
    # Grid-aligned phases give eta = 0; the assembled marker then equals
    # diag(-1 on marked, +1) tensor identity on eigenstate x sigma inputs.
    layout = em.WorkspaceLayout(mu=2, window=0)
    spec = em.SpectralUnitary(dim=2, eigenphases=(0.0, np.pi), delta=3.0)
    target = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)
    assembly = em.build_assembly(spec, target, layout, "pea")
    for i, phase in ((0, -1.0), (1, 1.0)):
        state = np.outer(spec.basis_column(i), layout.sigma_state()).ravel()
        out = assembly.frame.apply_to(state)
        assert np.abs(out - phase * state).max() <= 1e-12


def test_level_one_marker_residual_bound():
    # Engineered eta = 2^-5 exactly on both sides; the worst direction is
    # the unmarked one at 2 * h_1 * eta^3, within the 4 * h_1 * eta^3
    # envelope (two core applications, phase factor at most 2).
    eta = 2.0 ** -5
    window = em.SubspaceProjector(2, (0,))
    core = block_diag_join([rotation_block(eta),
                            rotation_block(np.sqrt(1 - eta * eta))])
    level1 = em.build_fixed_point(core, 1, window)
    op = em.assemble_marker(level1, np.pi, window)
    worst = 0.0
    for i in range(2):
        state_vec = np.zeros(4, complex)
        state_vec[2 * i] = 1.0
        out = op.apply_to(state_vec)
        phase = -1.0 if i == 0 else 1.0
        worst = max(worst, float(np.linalg.norm(out - phase * state_vec)))
    h1 = 3.0 ** 1.5
    assert worst <= 4 * h1 * eta ** 3
    assert worst >= 1.5 * h1 * eta ** 3  # tight: residual is ~2 h_1 eta^3


def test_marker_residual_equals_two_sine_law(setup_04):
    # Exact relation: residual_i = |1 - e^{i phi}| * (wrong amplitude of the
    # core on direction i) = 2 |sin(phi/2)| eta_i for the plain estimator.
    spec, target, layout = setup_04["spec"], setup_04["target"], setup_04["layout"]
    assembly = em.build_assembly(spec, target, layout, "pea")
    report = em.evaluate_marker(assembly, spec, target, n_random=3, seed=1)
    etas = {e.index: e.eta for e in setup_04["eta_report"].entries}
    for entry in report.entries:
        want = 2 * abs(np.sin(target.phi / 2)) * etas[entry.index]
        assert abs(entry.residual - want) <= 1e-8


def test_fixed_point_marker_shrinks_with_level(setup_04):
    spec, target, layout = setup_04["spec"], setup_04["target"], setup_04["layout"]
    eps1 = em.RecursionSchedule.closed_form(1).eps
    eps2 = em.RecursionSchedule.closed_form(2).eps
    reports = {}
    for q in (1, 2):
        assembly = em.build_assembly(spec, target, layout, "fixed_point", q=q)
        reports[q] = em.evaluate_marker(assembly, spec, target, n_random=2, seed=2)
    ratio = reports[2].worst_residual / reports[1].worst_residual
    assert ratio <= 10 * eps2 / eps1
    assert reports[2].worst_residual < reports[1].worst_residual


def test_pea_marker_halves_per_two_extra_qubits():
    # eta scales as 1/sqrt(2^mu), so two extra ancillas halve the residual;
    # window scalloping keeps the ratio only approximately 1/2.
    residuals = {}
    for mu in (8, 10, 12):
        choice = em.best_window(mu, 0.4, 0.05)
        spec, target = em.verification_model(0.4, 0.05, choice.lam_marked,
                                             choice.lam_unmarked)
        layout = em.WorkspaceLayout(mu, choice.window)
        assembly = em.build_assembly(spec, target, layout, "pea")
        report = em.evaluate_marker(assembly, spec, target, n_random=2, seed=3)
        residuals[mu] = report.worst_residual
        # DERIVED cross-check: residual = 2|sin(phi/2)| * worst eta from the
        # closed-form response.
        want = 2 * abs(np.sin(target.phi / 2)) * choice.eta
        assert abs(report.worst_residual - want) <= 1e-8
    for mu in (8, 10):
        ratio = residuals[mu + 2] / residuals[mu]
        assert 0.35 <= ratio <= 0.65


VARIANTS = [("pea", {}), ("voting", {"nu": 3}), ("fixed_point", {"q": 2})]


def _report_files(directory, report):
    cli._write_json(directory / "report.json", report.to_json_dict())
    cli._write_csv(directory / "report.csv", marker.CSV_COLUMNS, report.csv_rows())
    return [(directory / name).read_bytes() for name in ("report.json", "report.csv")]


@pytest.mark.parametrize("dtype", [np.complex128, EXTENDED], ids=["complex128", "extended"])
def test_haar_residuals_equal_computational_twin(tmp_path, dtype):
    # An evaluation runs in the eigenframe and never reads the eigenbasis:
    # directions through their own markers, probes as eigen-coefficients
    # through the frame.  So for every variant a Haar model and its
    # computational twin write the same report files byte for byte.
    basis = haar_unitary(np.random.default_rng(17), 3)
    spec = em.SpectralUnitary(dim=3, eigenphases=(0.02, 1.8, -2.1),
                              eigenbasis=basis, delta=1.5)
    twin = dataclasses.replace(spec, eigenbasis=None)
    target = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=0.9, b=0.05)
    layout = em.WorkspaceLayout(mu=5, window=2)
    for variant, extra in VARIANTS:
        files = []
        for name, s in (("haar", spec), ("twin", twin)):
            report = em.evaluate_marker(em.build_assembly(s, target, layout, variant, **extra),
                                        s, target, n_random=2, seed=3, dtype=dtype)
            assert report.worst_residual > 1e-8
            assert report.superposition_within_eigen_max
            directory = tmp_path / f"{variant}-{name}"
            directory.mkdir()
            files.append(_report_files(directory, report))
        assert files[0] == files[1], variant


@pytest.mark.skipif(not hasattr(np, "complex256"), reason="no extended precision here")
def test_extended_direction_residuals_use_a_long_double_ideal():
    # The ideal phase e^{i phi} of a marked direction is computed in long
    # double for complex256, as the probes' ideal is.  Rounded to double it
    # moved the marked residual here from 2.022158e-14 to 2.022164e-14.
    spec, target = em.verification_model(3.0, 0.05, 0.1487962892185004, 1.50176615759041,
                                         phi=0.9)
    layout = em.WorkspaceLayout(11, 330)
    assembly = em.build_assembly(spec, target, layout, "fixed_point", q=2)
    report = em.evaluate_marker(assembly, spec, target, n_random=0, dtype=np.complex256)
    (i,) = target.marked_indices
    u = assembly.uniform(np.complex256)
    (out,) = em.apply(assembly.directions[i], [np.ones(1, dtype=np.complex256)], u)
    residuals = {}
    for name, ideal in (("long double", np.exp(1j * np.longdouble(0.9))),
                        ("double", np.exp(1j * 0.9))):
        moved = out.copy()
        moved[0] -= np.asarray(ideal, dtype=np.complex256) * u
        residuals[name] = float(np.linalg.norm(moved))
    assert report.entries[i].residual == residuals["long double"]
    assert residuals["long double"] != residuals["double"]
    assert 2.0e-14 < report.entries[i].residual < 2.05e-14


def _oracle_blocks(spec, target, layout, q):
    """The fixed-point marker on the sigma-projector path: the recursion
    wraps the whole estimation operator V = V_F . H."""
    pea_op = em.build_pea(em.build_shifted(dataclasses.replace(spec, eigenbasis=None), target),
                          layout)
    core = em.build_fixed_point(pea_op, q, layout.z_window())
    return em.assemble_marker(core, target.phi, layout.z_window())


def _direction_residuals(blocks, spec, target, layout, dtype):
    """Each eigendirection's residual on sigma through the physical marker
    blocks, against an ideal phase computed in real_dtype(dtype)."""
    residuals = []
    phi = real_dtype(dtype).type(target.phi)
    for i, main in enumerate(np.eye(spec.dim, dtype=dtype)):
        out = blocks.apply_to(np.outer(main, layout.sigma_state(dtype)).ravel())
        out = out.reshape(spec.dim, layout.work_dim)
        out[i, 0] -= np.exp(1j * phi) if i in target.marked_indices else 1.0
        residuals.append(float(np.linalg.norm(out)))
    return residuals


TWO_DIRECTIONS = em.SpectralUnitary(dim=2, eigenphases=(0.03, 2.2), delta=1.5)


@pytest.mark.parametrize("q", [0, 1, 2])
def test_fixed_point_blocks_match_sigma_projector_oracle(q):
    target = em.MarkTarget.resolve(TWO_DIRECTIONS, psi_prime=0.0, phi=np.pi, b=0.05)
    layout = em.WorkspaceLayout(mu=5, window=2)
    assembly = em.build_assembly(TWO_DIRECTIONS, target, layout, "fixed_point", q=q)
    oracle = _oracle_blocks(TWO_DIRECTIONS, target, layout, q)
    got, want = em.dense_materialize(assembly.frame), em.dense_materialize(oracle)
    assert np.abs(got - want).max() <= 1e-12


def test_fixed_point_marker_runs_hadamard_only_at_its_ends(monkeypatch):
    target = em.MarkTarget.resolve(TWO_DIRECTIONS, psi_prime=0.0, phi=np.pi, b=0.05)
    layout = em.WorkspaceLayout(mu=5, window=2)
    assembly = em.build_assembly(TWO_DIRECTIONS, target, layout, "fixed_point", q=2)
    calls = []
    fwht = pea._fwht_axis1

    def counted(a):
        calls.append(a.shape)
        return fwht(a)

    monkeypatch.setattr(pea, "_fwht_axis1", counted)
    tally = em.Tally()
    assembly.frame.apply_to(np.outer(np.eye(1, 2)[0], layout.sigma_state()).ravel(), tally)
    assert len(calls) == 2
    assert tally.get("P") == 2 * 9 ** 2


# Run in a fresh process, so no earlier evaluation in the test run can have
# formed anything the ones below reuse.
_EVALUATIONS_WITHOUT_TRANSFORM = """
import json
import numpy as np
import eigenmark as em
from eigenmark import pea

calls = []
fwht = pea._fwht_axis1

def counted(a):
    calls.append(a.shape)
    return fwht(a)

pea._fwht_axis1 = counted
spec = em.SpectralUnitary(dim=3, eigenphases=(0.02, 1.8, -2.1), delta=1.5)
target = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)
layout = em.WorkspaceLayout(mu=3, window=1)
runs = {}
for variant, extra in (("pea", {}), ("voting", {"nu": 3}), ("fixed_point", {"q": 1})):
    assembly = em.build_assembly(spec, target, layout, variant, **extra)
    before = len(calls)
    report = em.evaluate_marker(assembly, spec, target, n_random=2, seed=8)
    again = em.evaluate_marker(assembly, spec, target, n_random=2, seed=8)
    counters = report.counters
    runs[variant] = [len(calls) - before, counters.n_p, counters.n_u, counters.n_a,
                     again.to_json_dict() == report.to_json_dict()]
print(json.dumps(runs))
"""


def test_evaluation_runs_no_walsh_hadamard():
    # An evaluation drives the inner markers on u = H sigma, formed from its
    # formula, so not one Walsh-Hadamard transform runs, not even in the
    # first evaluation, and a repeat gives the same report.  The counters
    # keep the pinned laws: per application N_P = 2 * 9^q (2 * nu for
    # voting) and N_U = N_P * 2^mu.
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _EVALUATIONS_WITHOUT_TRANSFORM], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    runs = json.loads(done.stdout)
    dim, n_random, mu = 3, 2, 3
    for variant, per_marker, registers in (("pea", 2, 1), ("voting", 2 * 3, 3),
                                           ("fixed_point", 2 * 9, 1)):
        transforms, n_p, n_u, n_a, repeats = runs[variant]
        assert transforms == 0 and repeats, variant
        assert n_p == per_marker * (dim + n_random), variant
        assert n_u == n_p * 2 ** mu, variant
        assert n_a == registers * mu, variant


def test_fixed_point_assembly_holds_no_copy_of_u():
    # The sigma-phases about the uniform state u keep only its dimension, so
    # a q=2 marker at mu=18 (u is 4 MiB in complex128) holds well under one
    # copy of it.  Each phase used to keep its own complex128 copy: 2 q
    # (D + 1) = 12 copies, 48 MiB.
    spec = em.SpectralUnitary(dim=2, eigenphases=(0.01, 2.0), delta=1.5)
    target = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)
    layout = em.WorkspaceLayout(18, round(2 ** 18 * 1.5 / (6 * np.pi)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assembly = em.build_assembly(spec, target, layout, "fixed_point", q=2)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(assembly.directions) == 2
    assert held < 2 ** 20, f"{held / 2 ** 20:.1f} MiB held"


@pytest.mark.skipif(not hasattr(np, "complex256"), reason="no extended precision here")
def test_extended_report_residuals_match_the_physical_marker():
    # complex256, fixed_point q=2: the residuals a report reads on u through
    # the inner markers equal the physical marker's on sigma within the
    # 2 * 9^q * eps floor, direction by direction.
    q = 2
    spec, target = em.verification_model(3.0, 0.05, 0.1487962892185004, 1.50176615759041,
                                         phi=0.9)
    layout = em.WorkspaceLayout(11, 330)
    assembly = em.build_assembly(spec, target, layout, "fixed_point", q=q)
    report = em.evaluate_marker(assembly, spec, target, n_random=0, dtype=np.complex256)
    want = _direction_residuals(assembly.frame, spec, target, layout, np.complex256)
    assert min(want) > 1e-16
    bound = 2 * 9 ** q * np.finfo(np.complex256).eps
    assert max(abs(e.residual - w) for e, w in zip(report.entries, want)) <= bound


def test_extended_residuals_match_sigma_projector_oracle():
    # The two paths differ only in rounding: within 2 * 9^q * eps(dtype)
    # of each other, direction by direction.
    q = 2
    spec = em.SpectralUnitary(dim=3, eigenphases=(0.02, 1.8, -2.1), delta=1.5)
    target = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)
    layout = em.WorkspaceLayout(mu=7, window=6)
    assembly = em.build_assembly(spec, target, layout, "fixed_point", q=q)
    got = _direction_residuals(assembly.frame, spec, target, layout, EXTENDED)
    want = _direction_residuals(_oracle_blocks(spec, target, layout, q), spec, target, layout,
                                EXTENDED)
    assert min(want) > 1e-14
    bound = 2 * 9 ** q * np.finfo(EXTENDED).eps
    assert max(abs(g - w) for g, w in zip(got, want)) <= bound


@pytest.mark.parametrize("variant, extra", [("pea", {}), ("voting", {"nu": 3}),
                                            ("fixed_point", {"q": 2})])
def test_estimation_applications_equal_charged_p(small_model, monkeypatch, variant, extra):
    # Every application of an operator that charges ("P", 1), forward or
    # adjoint, is one charge: nothing is stacked, skipped or merged.
    spec, target, layout = small_model
    assembly = em.build_assembly(spec, target, layout, variant, **extra)
    applied = []
    for method in ("apply_to", "adjoint_apply_to"):
        def counted(self, vec, tally=None, _plain=getattr(em.LinearOperator, method)):
            if ("P", 1) in self.cost:
                applied.append(method)
            return _plain(self, vec, tally)
        monkeypatch.setattr(em.LinearOperator, method, counted)
    report = em.evaluate_marker(assembly, spec, target, n_random=2, seed=7)
    assert len(applied) == report.counters.n_p > 0


@pytest.mark.parametrize("variant, extra, dtype", [("pea", {}, EXTENDED),
                                                   ("voting", {"nu": 3}, np.complex128),
                                                   ("fixed_point", {"q": 2}, EXTENDED)],
                         ids=["pea", "voting", "fixed_point"])
def test_direction_blocks_match_joint_blocks(small_model, variant, extra, dtype):
    # Eigendirection i's own inner marker on u is row i of inner on
    # e_i (x) u, bit for bit, and inner leaves every other row 0.
    spec, target, layout = small_model
    assembly = em.build_assembly(spec, target, layout, variant, **extra)
    assert len(assembly.directions) == spec.dim
    u = assembly.uniform(dtype)
    mains = np.eye(spec.dim, dtype=dtype)
    for i, (direction, main) in enumerate(zip(assembly.directions, mains)):
        out = assembly.inner.apply_to(np.outer(main, u).ravel())
        out = out.reshape(spec.dim, assembly.work_dim)
        alone = direction.apply_to(u)
        assert alone.dtype == out.dtype == dtype
        assert np.array_equal(alone, out[i])
        assert not np.delete(out, i, axis=0).any()


@pytest.mark.parametrize("variant, extra", [("pea", {}), ("voting", {"nu": 3}),
                                            ("fixed_point", {"q": 2})])
def test_eigendirections_transform_one_row_each(small_model, monkeypatch, variant, extra):
    # A charged application on an eigendirection transforms the workspace
    # amplitudes of its own row only; a superposition probe transforms all
    # main_dim rows.  So a marker application per direction and per probe
    # makes per_marker * (D*W + n_random*D*W) amplitudes in all, where W is
    # the (joint) workspace dimension and per_marker = 2 * 9^q (2 * nu).
    spec, target, layout = small_model
    n_random = 2
    assembly = em.build_assembly(spec, target, layout, variant, **extra)
    per_marker = marker.application_counters(assembly).n_p
    amplitudes = []
    for method in ("apply_to", "adjoint_apply_to"):
        def counted(self, vec, tally=None, _plain=getattr(em.LinearOperator, method)):
            if ("P", 1) in self.cost:
                amplitudes.append(np.size(vec))
            return _plain(self, vec, tally)
        monkeypatch.setattr(em.LinearOperator, method, counted)
    report = em.evaluate_marker(assembly, spec, target, n_random=n_random, seed=7)
    joint = spec.dim * assembly.work_dim
    assert len(amplitudes) == report.counters.n_p == per_marker * (spec.dim + n_random)
    assert sum(amplitudes) == per_marker * (joint + n_random * joint)


def test_superposition_residual_bounded_by_eigen_max(small_model):
    result = audit.check_marker_superposition_bound(*small_model, 10, 4)
    assert result.ok, result.detail


def test_marker_unitarity(small_model):
    spec, target, layout = small_model
    for variant, extra in (("pea", {}), ("fixed_point", {"q": 1}), ("voting", {"nu": 3})):
        frame = em.build_assembly(spec, target, layout, variant, **extra).frame
        m = em.dense_materialize(frame)
        assert np.abs(m.conj().T @ m - np.eye(frame.dim)).max() <= 1e-12


def test_phi_additivity(small_model):
    result = audit.check_marker_phi_additivity(*small_model, ((0.9, 1.7),))
    assert result.ok, result.detail


def test_workspace_restoration(small_model):
    result = audit.check_marker_workspace_restoration(*small_model)
    assert result.ok, result.detail


@pytest.mark.parametrize("variant, q, nu", [("pea", None, None), ("voting", None, 3),
                                            ("fixed_point", 2, None)],
                         ids=["pea", "voting", "fixed_point"])
def test_joint_marker_matches_the_eigenframe(small_model, variant, q, nu):
    # The marker turned by the Haar eigenbasis, on eigenstates and on
    # probes E c, against the eigenframe outputs the reports are read from.
    result = audit.check_marker_joint_oracle(*small_model, ((variant, q, nu),), 3, 9, 1e-12)
    assert result.ok, result.detail


def test_marker_counters(small_model):
    spec, target, layout = small_model
    assembly = em.build_assembly(spec, target, layout, "fixed_point", q=2)
    report = em.evaluate_marker(assembly, spec, target, n_random=2, seed=5)
    applications = spec.dim + 2
    assert report.counters.n_p == 2 * 81 * applications
    assert report.counters.n_u == report.counters.n_p * layout.work_dim
    assert report.counters.n_a == layout.mu
    voting_assembly = em.build_assembly(spec, target, layout, "voting", nu=3)
    voting_report = em.evaluate_marker(voting_assembly, spec, target,
                                       n_random=0, seed=5)
    assert voting_report.counters.n_a == 3 * layout.mu
    assert voting_report.counters.n_p == 2 * 3 * spec.dim


def test_probe_count_is_a_nonnegative_int(small_model):
    # True used to run one probe, and -3 none, reporting a superposition
    # residual of 0.0 within the eigen maximum.
    spec, target, layout = small_model
    assembly = em.build_assembly(spec, target, layout, "pea")
    with pytest.raises(TypeError, match="n_random"):
        em.evaluate_marker(assembly, spec, target, n_random=True)
    with pytest.raises(ValueError, match="n_random must be nonnegative, got -3"):
        em.evaluate_marker(assembly, spec, target, n_random=-3)
    report = em.evaluate_marker(assembly, spec, target, n_random=np.int64(0))
    assert report.superposition_residual == 0.0
    assert report.counters.n_p == 2 * spec.dim


TWO_PHASES = em.SpectralUnitary(dim=2, eigenphases=(0.01, 2.0), delta=1.5)
SWAPPED = em.SpectralUnitary(dim=2, eigenphases=(2.0, 0.01), delta=1.5)
THREE_PHASES = em.SpectralUnitary(dim=3, eigenphases=(0.01, 2.0, -2.0), delta=1.5)


def _resolved(spec):
    return spec, em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)


@pytest.mark.parametrize("built, given", [
    (TWO_PHASES, SWAPPED),
    (TWO_PHASES, THREE_PHASES),
    (THREE_PHASES, TWO_PHASES),
], ids=["swapped_phases", "extra_direction", "missing_direction"])
def test_evaluation_rejects_another_model(built, given):
    # An assembly evaluated with another model's pair used to report the
    # other model's labels on its own residuals, to drop a third direction
    # silently, or to raise IndexError.  The model's own pair still runs.
    layout = em.WorkspaceLayout(mu=6, window=2)
    assembly = em.build_assembly(*_resolved(built), layout, "pea")
    assert len(em.evaluate_marker(assembly, *_resolved(built), n_random=1).entries) == built.dim
    with pytest.raises(ValueError, match="not the one the assembly was built for"):
        em.evaluate_marker(assembly, *_resolved(given), n_random=1)


def test_evaluation_rejects_a_model_the_target_was_not_resolved_on():
    # The assembly's own target with a model it does not resolve on.
    layout = em.WorkspaceLayout(mu=6, window=2)
    spec, target = _resolved(TWO_PHASES)
    assembly = em.build_assembly(spec, target, layout, "pea")
    with pytest.raises(ValueError, match="different spectral model"):
        em.evaluate_marker(assembly, SWAPPED, target, n_random=1)


@pytest.mark.parametrize("dtype", [np.complex64, np.float64, np.longdouble])
def test_evaluation_rejects_other_amplitude_dtypes(dtype, monkeypatch):
    # complex64 ran in single precision and float64 dropped the imaginary
    # parts with a ComplexWarning; both are rejected before any draw.
    spec, target = _resolved(TWO_PHASES)
    assembly = em.build_assembly(spec, target, em.WorkspaceLayout(mu=8, window=14),
                                 "fixed_point", q=2)

    def no_draw(*_args, **_kwargs):
        raise AssertionError("drew probes")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match=f"amplitude dtype {np.dtype(dtype).name}"):
        em.evaluate_marker(assembly, spec, target, n_random=4, dtype=dtype)


def test_variant_argument_validation(small_model):
    spec, target, layout = small_model
    with pytest.raises(ValueError, match="unknown variant"):
        em.build_assembly(spec, target, layout, "other")
    with pytest.raises(ValueError, match="pea"):
        em.build_assembly(spec, target, layout, "pea", q=1)
    with pytest.raises(ValueError, match="fixed_point"):
        em.build_assembly(spec, target, layout, "fixed_point")
    with pytest.raises(ValueError, match="voting"):
        em.build_assembly(spec, target, layout, "voting", q=1, nu=3)
    # A fractional level passed this check and then failed in range(q).
    for variant, args in (("fixed_point", (1.5, None)), ("fixed_point", (True, None)),
                          ("voting", (None, 3.7)), ("voting", (None, True))):
        with pytest.raises(TypeError, match="integer"):
            marker.check_variant(variant, *args)


def test_report_serialization(tmp_path, small_model):
    spec, target, layout = small_model
    assembly = em.build_assembly(spec, target, layout, "fixed_point", q=1)
    report = em.evaluate_marker(assembly, spec, target, n_random=2, seed=6)
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    cli._write_json(jpath, report.to_json_dict())
    cli._write_csv(cpath, marker.CSV_COLUMNS, report.csv_rows())
    doc = json.loads(jpath.read_text())
    assert doc["variant"] == "fixed_point"
    assert doc["q_or_nu"] == 1
    assert len(doc["entries"]) == spec.dim
    with open(cpath, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == list(marker.CSV_COLUMNS)
    assert len(rows) == spec.dim
    assert rows[0]["variant"] == "fixed_point"

"""Named invariant checks covering every module, runnable as one batch.

Each check is deterministic given the seed, fast enough to run twice in a
row, and reports one PASS/FAIL line with the governing numbers.  The batch
is the backing for the `audit` CLI subcommand; its text output is
byte-stable across runs with the same seed.

Scales are chosen for speed: dense oracles run at joint dimensions of a
few dozen, and the calibrated-recursion checks run at delta = 3.0 where
the calibrated workspace stays modest.  The heavyweight spec-scale runs
live in the acceptance test suite instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import complexity, fpqs, marker, pea, spectral, voting
from .statevec import (
    EXTENDED,
    Tally,
    apply,
    dense_materialize,
    from_matrix,
    product_state,
    subspace_amplitude,
)

AUDIT_DELTA = 3.0
AUDIT_B = 0.05


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _haar(rng, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class _Context:
    """Shared artifacts so expensive constructions happen once per audit."""

    def __init__(self, seed: int) -> None:
        # Small model with a nontrivial eigenbasis for dense oracles.
        basis = _haar(np.random.default_rng(seed + 1), 3)
        self.small_spec = spectral.SpectralUnitary(
            dim=3, eigenphases=(0.05, 1.9, -2.0), eigenbasis=basis, delta=1.5)
        self.small_target = spectral.MarkTarget.resolve(
            self.small_spec, psi_prime=0.0, phi=np.pi, b=0.05)
        self.small_layout = pea.WorkspaceLayout(mu=3, window=1)
        self.small_shifted = spectral.build_shifted(self.small_spec, self.small_target)
        self.small_pea = pea.build_pea(self.small_shifted, self.small_layout)

        # Calibrated configuration for the recursion-law checks.
        self.calib = pea.calibrate_workspace(AUDIT_DELTA, AUDIT_B)
        self.layout = self.calib.layout()
        self.spec, self.target = pea.verification_model(
            AUDIT_DELTA, AUDIT_B, self.calib.lam_marked, self.calib.lam_unmarked)
        self.shifted = spectral.build_shifted(self.spec, self.target)
        self.pea_op = pea.build_pea(self.shifted, self.layout)
        self.eta_report = pea.measure_eta(self.pea_op, self.spec, self.target,
                                          self.layout, dtype=EXTENDED)


def _fmt(x: float) -> str:
    return f"{float(x):.6e}"


# --- statevec ---------------------------------------------------------------

def _sample_operators(ctx):
    window = ctx.small_layout.z_window()
    return [
        ("shifted", ctx.small_shifted),
        ("pea", ctx.small_pea),
        ("phase_state", fpqs.selective_phase(fpqs.SelectivePhaseSpec(
            np.array([0.6, 0.8j]), 1.1))),
        ("fixed_point_q1", fpqs.build_fixed_point(
            ctx.small_pea, 1, ctx.small_spec.dim, window)),
        ("marker_q1", marker.build_assembly(
            ctx.small_spec, ctx.small_target, ctx.small_layout,
            "fixed_point", q=1).operator),
    ]


def check_statevec_unitarity(ctx) -> CheckResult:
    worst = 0.0
    for _name, op in _sample_operators(ctx):
        m = dense_materialize(op)
        worst = max(worst, float(np.abs(m.conj().T @ m - np.eye(op.dim)).max()))
    return CheckResult("statevec.unitarity", worst <= 1e-12,
                       f"max |M+M - 1| = {_fmt(worst)} (tol 1e-12)")


def check_statevec_dense_agreement(ctx) -> CheckResult:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _name, op in _sample_operators(ctx):
        m = dense_materialize(op)
        for _ in range(20):
            v = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
            v /= np.linalg.norm(v)
            worst = max(worst, float(np.abs(op.apply_to(v) - m @ v).max()))
    return CheckResult("statevec.dense_agreement", worst <= 1e-12,
                       f"max matrix-free vs dense deviation = {_fmt(worst)} (tol 1e-12)")


def check_statevec_adjoint(ctx) -> CheckResult:
    rng = np.random.default_rng(12)
    worst = 0.0
    for _name, op in _sample_operators(ctx):
        for _ in range(5):
            x = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
            y = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
            lhs = np.vdot(x, op.apply_to(y))
            rhs = np.vdot(op.adjoint_apply_to(x), y)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        v = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
        v /= np.linalg.norm(v)
        worst = max(worst, float(np.abs(op.adjoint_apply_to(op.apply_to(v)) - v).max()))
    return CheckResult("statevec.adjoint", worst <= 1e-12,
                       f"max <x,Ay> vs <A+x,y> and A+A=1 deviation = {_fmt(worst)} (tol 1e-12)")


# --- spectral ---------------------------------------------------------------

def check_spectral_marker_composition(ctx) -> CheckResult:
    spec = ctx.small_spec
    worst = 0.0
    for p1, p2 in ((0.3, 1.1), (np.pi, -0.4)):
        t1 = spectral.MarkTarget.resolve(spec, 0.0, p1, b=0.05)
        t2 = spectral.MarkTarget.resolve(spec, 0.0, p2, b=0.05)
        t12 = spectral.MarkTarget.resolve(spec, 0.0, p1 + p2, b=0.05)
        m1 = dense_materialize(spectral.ideal_marker(spec, t1))
        m2 = dense_materialize(spectral.ideal_marker(spec, t2))
        m12 = dense_materialize(spectral.ideal_marker(spec, t12))
        worst = max(worst, float(np.abs(m1 @ m2 - m12).max()))
    # Diagonality in the model's own eigenbasis.
    e = spec.eigenbasis
    m = e.conj().T @ dense_materialize(spectral.ideal_marker(spec, ctx.small_target)) @ e
    worst = max(worst, float(np.abs(m - np.diag(np.diag(m))).max()))
    return CheckResult("spectral.marker_composition", worst <= 1e-12,
                       f"phase additivity and diagonality deviation = {_fmt(worst)} (tol 1e-12)")


def check_spectral_shift_commutes(ctx) -> CheckResult:
    u = dense_materialize(spectral.unitary_of(ctx.small_spec))
    s = dense_materialize(ctx.small_shifted)
    worst = float(np.abs(u @ s - s @ u).max())
    return CheckResult("spectral.shift_commutes", worst <= 1e-12,
                       f"max |US - SU| = {_fmt(worst)} (tol 1e-12)")


# --- pea --------------------------------------------------------------------

def check_pea_grid_exactness(ctx) -> CheckResult:
    layout = pea.WorkspaceLayout(mu=5, window=2)
    wdim = layout.work_dim
    spec = spectral.SpectralUnitary(
        dim=2, eigenphases=(2 * np.pi * 1 / wdim, 2 * np.pi * 12 / wdim), delta=1.5)
    target = spectral.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.2)
    op = pea.build_pea(spectral.build_shifted(spec, target), layout)
    report = pea.measure_eta(op, spec, target, layout)
    return CheckResult("pea.grid_exactness", report.eta <= 1e-12,
                       f"grid-aligned eta = {_fmt(report.eta)} (tol 1e-12)")


def _main_disturbance(ctx, op) -> float:
    """Largest norm op moves out of psi_i (x) workspace, over the small
    model's eigendirections psi_i with sigma on the workspace."""
    worst = 0.0
    for i in range(ctx.small_spec.dim):
        psi = ctx.small_spec.basis_column(i)
        state = product_state(psi, ctx.small_layout.sigma_state())
        out = apply(op, state, "joint").tensor()
        keep = np.outer(psi, psi.conj() @ out)
        worst = max(worst, float(np.linalg.norm(out - keep)))
    return worst


def check_pea_block_structure(ctx) -> CheckResult:
    worst = _main_disturbance(ctx, ctx.small_pea)
    return CheckResult("pea.block_structure", worst <= 1e-12,
                       f"main-factor disturbance = {_fmt(worst)} (tol 1e-12)")


def check_pea_scaling_constant(ctx) -> CheckResult:
    const, _records = pea.scaling_constant(range(6, 11), delta=0.4, b=0.05,
                                           grid_per_bin=32)
    return CheckResult("pea.scaling_constant", const <= 10.0,
                       f"max eta*sqrt(2^mu*delta) over mu=6..10 at delta=0.4 is "
                       f"{_fmt(const)} (bound 10)")


def check_pea_kernel_vs_simulation(ctx) -> CheckResult:
    layout = pea.WorkspaceLayout(mu=6, window=3)
    worst = 0.0
    for lam_other in (0.3, 1.7, -2.2):
        spec = spectral.SpectralUnitary(dim=2, eigenphases=(0.002, lam_other), delta=0.1)
        target = spectral.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)
        op = pea.build_pea(spectral.build_shifted(spec, target), layout)
        for i in range(2):
            state = product_state(spec.basis_column(i), layout.sigma_state())
            out = apply(op, state, "joint")
            sim = subspace_amplitude(out, layout.z_window()).magnitude ** 2
            kern = float(pea.window_response_mass(target.lambdas[i], layout.mu,
                                                  layout.window)[0])
            worst = max(worst, abs(sim - kern))
    return CheckResult("pea.kernel_vs_simulation", worst <= 1e-10,
                       f"max |simulated - closed form| window mass = {_fmt(worst)} (tol 1e-10)")


def check_pea_calibration_reverified(ctx) -> CheckResult:
    calib = ctx.calib
    report = ctx.eta_report
    ok = calib.converged and report.eta <= calib.eta_target
    agree = abs(report.eta - calib.eta)
    ok = ok and agree <= 1e-9
    return CheckResult(
        "pea.calibration_reverified", ok,
        f"delta={AUDIT_DELTA!r}: mu={calib.mu} window={calib.window} kernel eta="
        f"{_fmt(calib.eta)} measured eta={_fmt(report.eta)} target={_fmt(calib.eta_target)}")


# --- fpqs -------------------------------------------------------------------

def _random_levels(seed: int, level):
    """For 50 random unitaries V on random workspaces and windows: the
    window mask, V sigma, and level(V) sigma."""
    rng = np.random.default_rng(seed)
    for _ in range(50):
        mu = int(rng.integers(1, 7))
        wdim = 2 ** mu
        layout = pea.WorkspaceLayout(mu, int(rng.integers(0, max(1, wdim // 2))))
        window, sigma = layout.z_window(), layout.sigma_state()
        v = from_matrix(_haar(rng, wdim))
        yield window.mask(), v.apply_to(sigma), level(v, 1, window).apply_to(sigma)


def check_fpqs_exact_cubing(ctx) -> CheckResult:
    worst = 0.0
    for inside, before, after in _random_levels(21, fpqs.pi3_compress):
        eta = float(np.linalg.norm(before[~inside]))
        got = float(np.linalg.norm(after[~inside]))
        worst = max(worst, abs(got - eta ** 3))
    return CheckResult("fpqs.exact_cubing", worst <= 1e-12,
                       f"max |wrong after compress - eta^3| = {_fmt(worst)} over 50 "
                       f"random unitaries (tol 1e-12)")


def check_fpqs_balance_mass_cubing(ctx) -> CheckResult:
    worst = 0.0
    for inside, before, after in _random_levels(22, fpqs.pi3_balance):
        u0 = float(np.linalg.norm(before[inside]) ** 2)
        u1 = float(np.linalg.norm(after[inside]) ** 2)
        worst = max(worst, abs(u1 - u0 ** 3))
    return CheckResult("fpqs.balance_mass_cubing", worst <= 1e-12,
                       f"max |in-window mass after balance - u^3| = {_fmt(worst)} (tol 1e-12)")


def check_fpqs_measured_vs_predicted(ctx) -> CheckResult:
    eta = ctx.eta_report.eta
    ok = eta <= fpqs.ETA_REGIME
    details = [f"eta={_fmt(eta)}"]
    slack = 1.0 + 10.0 * eta * eta
    for q in (1, 2):
        pred = fpqs.predict_schedule(q, eta)
        level = fpqs.build_fixed_point(ctx.pea_op, q, ctx.spec.dim, ctx.layout.z_window())
        got = pea.measure_eta(level, ctx.spec, ctx.target, ctx.layout, dtype=EXTENDED)
        marked, unmarked = got.eta_marked, got.eta_unmarked
        ok_q = (marked <= pred.marked_magnitude * slack
                and unmarked <= pred.unmarked_magnitude * slack
                and marked <= pred.schedule.eps and unmarked <= pred.schedule.eps)
        ok = ok and ok_q
        details.append(
            f"q={q}: marked {_fmt(marked)} <= {_fmt(pred.marked_magnitude * slack)}, "
            f"unmarked {_fmt(unmarked)} <= {_fmt(pred.unmarked_magnitude * slack)}, "
            f"eps_q={_fmt(pred.schedule.eps)}")
    return CheckResult("fpqs.measured_vs_predicted", ok, "; ".join(details))


def check_fpqs_recurrences(ctx) -> CheckResult:
    worst = 0.0
    for q in range(6):
        here = fpqs.RecursionSchedule.closed_form(q)
        step = here.successor()
        want = fpqs.RecursionSchedule.closed_form(q + 1)
        worst = max(worst,
                    abs(step.m - want.m),
                    abs(step.g - want.g) / want.g,
                    abs(step.h - want.h) / want.h)
        if want.eps > 0:
            worst = max(worst, abs(step.eps - want.eps) / want.eps)
    return CheckResult("fpqs.recurrences", worst <= 1e-12,
                       f"max relative recurrence vs closed-form deviation over q<=6 = "
                       f"{_fmt(worst)} (tol 1e-12)")


def check_fpqs_counter_law(ctx) -> CheckResult:
    layout = ctx.small_layout
    window = layout.z_window()
    wdim = layout.work_dim
    ok = True
    details = []
    for q in range(4):
        op = fpqs.build_fixed_point(ctx.small_pea, q, ctx.small_spec.dim, window)
        tally = Tally()
        state = product_state(ctx.small_spec.basis_column(0), layout.sigma_state())
        apply(op, state, "joint", tally)
        n_p, n_u = tally.get("P"), tally.get("U")
        ok = ok and n_p == 9 ** q and n_u == 9 ** q * wdim
        details.append(f"q={q}: N_P={n_p} N_U={n_u}")
    return CheckResult("fpqs.counter_law", ok,
                       "; ".join(details) + f" (want 9^q and 9^q*{wdim})")


def check_fpqs_block_locality(ctx) -> CheckResult:
    window = ctx.small_layout.z_window()
    op = fpqs.build_fixed_point(ctx.small_pea, 1, ctx.small_spec.dim, window)
    worst = _main_disturbance(ctx, op)
    return CheckResult("fpqs.block_locality", worst <= 1e-12,
                       f"main-factor disturbance under level-1 recursion = {_fmt(worst)} "
                       f"(tol 1e-12)")


# --- voting -----------------------------------------------------------------

def check_voting_tensor_equivalence(ctx) -> CheckResult:
    layout = pea.WorkspaceLayout(mu=2, window=0)
    spec = spectral.SpectralUnitary(dim=2, eigenphases=(0.02, 2.1), delta=1.9)
    target = spectral.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)
    op = pea.build_pea(spectral.build_shifted(spec, target), layout)
    etas = pea.measure_eta(op, spec, target, layout)
    worst = 0.0
    for nu in (1, 3, 5):
        h = voting.build_h_tensor(op, nu, layout, spec.dim)
        majority = voting.majority_projector(layout.z_window(), nu)
        for entry in etas.entries:
            main = spec.basis_column(entry.index)
            work = np.zeros(layout.work_dim ** nu, complex)
            work[0] = 1.0
            out = apply(h, product_state(main, work), "joint")
            lose = majority.complement() if entry.marked else majority
            got = subspace_amplitude(out, lose).magnitude
            want = voting.majority_tail_amplitude(entry.eta ** 2, nu)
            worst = max(worst, abs(got - want))
    return CheckResult("voting.tensor_equivalence", worst <= 1e-10,
                       f"max |tensor - binomial| amplitude over nu in {{1,3,5}} = "
                       f"{_fmt(worst)} (tol 1e-10)")


def check_voting_tail_monotonicity(ctx) -> CheckResult:
    ok = True
    for p in (0.001, 0.05, 0.3, 0.49):
        tails = [voting.majority_tail_amplitude(p, nu) for nu in range(1, 23, 2)]
        ok = ok and all(b < a for a, b in zip(tails, tails[1:]))
    return CheckResult("voting.tail_monotonicity", ok,
                       "tail amplitude strictly decreasing in nu for p in "
                       "{0.001, 0.05, 0.3, 0.49}")


def check_voting_hoeffding(ctx) -> CheckResult:
    p = 2.0 ** -10
    worst_ratio = 0.0
    for nu in range(1, 42, 2):
        ratio = voting.majority_tail_amplitude(p, nu) / voting.hoeffding_amplitude_bound(nu)
        worst_ratio = max(worst_ratio, ratio)
    return CheckResult("voting.hoeffding_bound", worst_ratio <= 1.0,
                       f"max tail/e^(-nu/4) ratio at p=2^-10 over odd nu<=41 = "
                       f"{_fmt(worst_ratio)} (bound 1)")


# --- marker -----------------------------------------------------------------

def check_marker_workspace_restoration(ctx) -> CheckResult:
    assembly = marker.build_assembly(ctx.small_spec, ctx.small_target,
                                     ctx.small_layout, "fixed_point", q=1)
    worst = 0.0
    for i in range(ctx.small_spec.dim):
        psi = ctx.small_spec.basis_column(i)
        state = product_state(psi, ctx.small_layout.sigma_state())
        out = apply(assembly.operator, state, "joint")
        phase = np.exp(1j * ctx.small_target.phi) if i in ctx.small_target.marked_indices else 1.0
        residual = np.linalg.norm(out.amplitudes - phase * state.amplitudes)
        block = psi.conj() @ out.tensor()
        cross_mass = np.linalg.norm(out.tensor() - np.outer(psi, block)) ** 2
        sigma = ctx.small_layout.sigma_state()
        recon = np.sqrt(np.linalg.norm(block - phase * sigma) ** 2 + cross_mass)
        worst = max(worst, abs(recon - residual))
    return CheckResult("marker.workspace_restoration", worst <= 1e-10,
                       f"residual vs workspace-displacement decomposition gap = "
                       f"{_fmt(worst)} (tol 1e-10)")


def check_marker_superposition_bound(ctx) -> CheckResult:
    assembly = marker.build_assembly(ctx.small_spec, ctx.small_target,
                                     ctx.small_layout, "fixed_point", q=1)
    report = marker.evaluate_marker(assembly, ctx.small_spec, ctx.small_target,
                                    n_random=6, seed=31)
    ok = report.superposition_within_eigen_max
    return CheckResult("marker.superposition_bound", ok,
                       f"superposition residual {_fmt(report.superposition_residual)} <= "
                       f"eigen max {_fmt(report.worst_residual)} + 1e-10")


def check_marker_phi_additivity(ctx) -> CheckResult:
    spec, layout = ctx.small_spec, ctx.small_layout
    worst = 0.0
    for p1, p2 in ((0.7, 1.3), (np.pi / 2, np.pi / 2)):
        t1 = spectral.MarkTarget.resolve(spec, 0.0, p1, b=0.05)
        t2 = spectral.MarkTarget.resolve(spec, 0.0, p2, b=0.05)
        t12 = spectral.MarkTarget.resolve(spec, 0.0, p1 + p2, b=0.05)
        a1 = marker.build_assembly(spec, t1, layout, "pea")
        a2 = marker.build_assembly(spec, t2, layout, "pea")
        a12 = marker.build_assembly(spec, t12, layout, "pea")
        for i in range(spec.dim):
            state = product_state(spec.basis_column(i), layout.sigma_state())
            g2 = apply(a2.operator, state, "joint")
            composed = a1.operator.apply_to(g2.amplitudes)
            direct = apply(a12.operator, state, "joint").amplitudes
            budget = 0.0
            for t, a in ((t1, a1), (t2, a2), (t12, a12)):
                phase = np.exp(1j * t.phi) if i in t.marked_indices else 1.0
                out = apply(a.operator, state, "joint")
                budget += float(np.linalg.norm(out.amplitudes - phase * state.amplitudes))
            gap = float(np.linalg.norm(composed - direct)) - budget
            worst = max(worst, gap)
    return CheckResult("marker.phi_additivity", worst <= 1e-10,
                       f"max composition defect beyond residual budget = {_fmt(worst)} "
                       f"(tol 1e-10)")


def check_marker_phi_zero_identity(ctx) -> CheckResult:
    target0 = spectral.MarkTarget.resolve(ctx.small_spec, 0.0, 0.0, b=0.05)
    assembly = marker.build_assembly(ctx.small_spec, target0, ctx.small_layout,
                                     "fixed_point", q=1)
    report = marker.evaluate_marker(assembly, ctx.small_spec, target0,
                                    n_random=4, seed=32)
    worst = max(report.worst_residual, report.superposition_residual)
    return CheckResult("marker.phi_zero_identity", worst <= 1e-12,
                       f"phi=0 residual = {_fmt(worst)} (tol 1e-12)")


# --- complexity -------------------------------------------------------------

def check_complexity_counter_consistency(ctx) -> CheckResult:
    assembly = marker.build_assembly(ctx.small_spec, ctx.small_target,
                                     ctx.small_layout, "fixed_point", q=2)
    report = marker.evaluate_marker(assembly, ctx.small_spec, ctx.small_target,
                                    n_random=2, seed=33)
    applications = ctx.small_spec.dim + 2
    want_p = 2 * 9 ** 2 * applications
    got = report.counters
    ok = (got.pea_consistent(ctx.small_layout.mu) and got.n_p == want_p
          and got.n_a == ctx.small_layout.mu)
    return CheckResult("complexity.counter_consistency", ok,
                       f"N_P={got.n_p} (want {want_p}), N_U={got.n_u} "
                       f"(want N_P*2^mu={got.n_p * 2 ** ctx.small_layout.mu}), N_A={got.n_a}")


def check_complexity_planner(ctx) -> CheckResult:
    eta = 2.0 ** -5
    grid = [10.0 ** -k for k in range(1, 13)]
    qs = [complexity.plan_recursion(eta, eps) for eps in grid]
    ok = all(b >= a for a, b in zip(qs, qs[1:]))
    ok = ok and complexity.plan_recursion(eta, 1e-8) == 2
    ok = ok and complexity.plan_recursion(eta, 0.1) == 0
    req = complexity.PlanRequest(delta=AUDIT_DELTA, invocations=10 ** 6)
    ok = ok and complexity.plan_recursion(eta, req.resolved_eps) == 2
    return CheckResult("complexity.planner", ok,
                       f"q over eps=1e-1..1e-12: {qs}; plan(1e-8)=2, plan(0.1)=0, "
                       f"plan(0.01/1e6)=2")


def check_complexity_table_consistency(ctx) -> CheckResult:
    eps = 1e-8
    eta = ctx.eta_report.eta
    q = complexity.plan_recursion(min(eta, complexity.ETA_REGIME), eps)
    assembly = marker.build_assembly(ctx.spec, ctx.target, ctx.layout,
                                     "fixed_point", q=q)
    counters = marker.application_counters(assembly)
    measured = [{"variant": "fixed_point", "delta": AUDIT_DELTA, "eps": eps,
                 "mu": ctx.layout.mu, "q": q, "nu": None,
                 "n_u": counters.n_u, "n_a": counters.n_a, "n_p": counters.n_p}]
    rows = complexity.tabulate([AUDIT_DELTA], [eps], measured)
    cell = [r for r in rows if r["variant"] == "fixed_point"][0]
    want = 2 * 9 ** q * 2 ** ctx.layout.mu
    ok = cell["N_U_measured"] == want
    return CheckResult("complexity.table_consistency", ok,
                       f"measured fixed-point N_U per marker application = "
                       f"{cell['N_U_measured']} (want 2*9^{q}*2^{ctx.layout.mu} = {want})")


CHECKS = (
    check_statevec_unitarity,
    check_statevec_dense_agreement,
    check_statevec_adjoint,
    check_spectral_marker_composition,
    check_spectral_shift_commutes,
    check_pea_grid_exactness,
    check_pea_block_structure,
    check_pea_scaling_constant,
    check_pea_kernel_vs_simulation,
    check_pea_calibration_reverified,
    check_fpqs_exact_cubing,
    check_fpqs_balance_mass_cubing,
    check_fpqs_measured_vs_predicted,
    check_fpqs_recurrences,
    check_fpqs_counter_law,
    check_fpqs_block_locality,
    check_voting_tensor_equivalence,
    check_voting_tail_monotonicity,
    check_voting_hoeffding,
    check_marker_workspace_restoration,
    check_marker_superposition_bound,
    check_marker_phi_additivity,
    check_marker_phi_zero_identity,
    check_complexity_counter_consistency,
    check_complexity_planner,
    check_complexity_table_consistency,
)


def run_audit(seed: int = 0) -> list[CheckResult]:
    ctx = _Context(seed)
    return [check(ctx) for check in CHECKS]


def format_results(results) -> str:
    lines = [f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}" for r in results]
    passed = sum(r.ok for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"

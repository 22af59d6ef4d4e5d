"""Named invariant checks covering every module, runnable as one batch.

Each check is deterministic given the seed, fast enough to run twice in a
row, and reports one PASS/FAIL line with the governing numbers.  The batch
is the backing for the `audit` CLI subcommand; its text output is
byte-stable across runs with the same seed.

Scales are chosen for speed: dense oracles run at joint dimensions of a
few dozen, and the calibrated-recursion checks run at delta = 3.0 where
the calibrated workspace stays modest.  A check that an acceptance
criterion shares takes the configuration it runs on (a seed, or a model,
layout and operator) as plain arguments: `run_audit` passes the audit's,
and the acceptance suite passes its own, heavier ones, to the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import complexity, fpqs, marker, pea, spectral, voting
from .statevec import EXTENDED, Tally, apply, dense_materialize, from_matrix, in_frame

AUDIT_DELTA = 3.0
AUDIT_B = 0.05


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


class _Context:
    """Shared artifacts so expensive constructions happen once per audit."""

    def __init__(self, seed: int) -> None:
        # Small model with a nontrivial eigenbasis for dense oracles.
        basis = spectral.haar_unitary(np.random.default_rng(seed + 1), 3)
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


def _columns(spec) -> list:
    """The eigendirections psi_i of spec as main-space vectors."""
    return [spec.basis_column(i) for i in range(spec.dim)]


# --- statevec ---------------------------------------------------------------

def _sample_operators(ctx):
    window = ctx.small_layout.z_window()
    assembly = marker.build_assembly(ctx.small_spec, ctx.small_target, ctx.small_layout,
                                     "fixed_point", q=1)
    return [
        ("shifted", ctx.small_shifted),
        ("pea", ctx.small_pea),
        ("phase_state", fpqs.selective_phase(np.array([0.6, 0.8j]), 1.1)),
        ("fixed_point_q1", fpqs.build_fixed_point(ctx.small_pea, 1, window)),
        ("marker_q1", in_frame(assembly.frame, ctx.small_spec.eigenbasis, assembly.work_dim)),
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
    # Diagonality: each eigendirection is mapped onto itself.
    m = dense_materialize(spectral.ideal_marker(spec, ctx.small_target))
    for psi in _columns(spec):
        out = m @ psi
        worst = max(worst, float(np.abs(out - (psi.conj() @ out) * psi).max()))
    return CheckResult("spectral.marker_composition", worst <= 1e-12,
                       f"phase additivity and diagonality deviation = {_fmt(worst)} (tol 1e-12)")


def check_spectral_shift_commutes(spec, target) -> CheckResult:
    u = dense_materialize(spectral.unitary_of(spec))
    s = dense_materialize(spectral.build_shifted(spec, target))
    worst = float(np.abs(u @ s - s @ u).max())
    return CheckResult("spectral.shift_commutes", worst <= 1e-12,
                       f"max |US - SU| = {_fmt(worst)} (tol 1e-12)")


# --- pea --------------------------------------------------------------------

def check_pea_grid_exactness(spec, target, layout) -> CheckResult:
    """On a model whose eigenphases sit on the 2^mu grid, estimation leaves
    no magnitude in the wrong window."""
    op = pea.build_pea(spectral.build_shifted(spec, target), layout)
    report = pea.measure_eta(op, spec, target, layout)
    return CheckResult("pea.grid_exactness", report.eta <= 1e-12,
                       f"grid-aligned eta = {_fmt(report.eta)} (tol 1e-12)")


def _main_disturbance(op, spec, layout) -> float:
    """Largest norm op moves out of psi_i (x) workspace, over the
    eigendirections psi_i of spec with sigma on the workspace."""
    worst = 0.0
    psis = _columns(spec)
    for psi, out in zip(psis, apply(op, psis, layout.sigma_state())):
        keep = np.outer(psi, psi.conj() @ out)
        worst = max(worst, float(np.linalg.norm(out - keep)))
    return worst


def check_pea_block_structure(ctx) -> CheckResult:
    worst = _main_disturbance(ctx.small_pea, ctx.small_spec, ctx.small_layout)
    return CheckResult("pea.block_structure", worst <= 1e-12,
                       f"main-factor disturbance = {_fmt(worst)} (tol 1e-12)")


def check_pea_scaling_constant() -> CheckResult:
    const, records = pea.scaling_constant(range(6, 11), delta=0.4, b=0.05)
    return CheckResult("pea.scaling_constant", const <= 10.0 and len(records) == 5,
                       f"max eta*sqrt(2^mu*delta) over mu=6..10 at delta=0.4 is "
                       f"{_fmt(const)} (bound 10)")


def check_pea_kernel_vs_simulation(layout, models, tol) -> CheckResult:
    """The simulated in-window mass of every direction of each (spec,
    target) model matches window_response_mass to tol."""
    worst = 0.0
    for spec, target in models:
        op = pea.build_pea(spectral.build_shifted(spec, target), layout)
        for i, out in enumerate(apply(op, _columns(spec), layout.sigma_state())):
            sim = float(np.linalg.norm(out[:, layout.z_window().mask()])) ** 2
            kern = float(pea.window_response_mass(target.lambdas[i], layout.mu,
                                                  layout.window)[0])
            worst = max(worst, abs(sim - kern))
    return CheckResult("pea.kernel_vs_simulation", worst <= tol,
                       f"max |simulated - closed form| window mass = {_fmt(worst)} (tol {tol:g})")


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
        v = from_matrix(spectral.haar_unitary(rng, wdim))
        yield window.mask(), v.apply_to(sigma), level(v, window).apply_to(sigma)


def check_fpqs_exact_cubing(seed: int) -> CheckResult:
    worst = 0.0
    for inside, before, after in _random_levels(seed, fpqs.pi3_compress):
        eta = float(np.linalg.norm(before[~inside]))
        got = float(np.linalg.norm(after[~inside]))
        worst = max(worst, abs(got - eta ** 3))
    return CheckResult("fpqs.exact_cubing", worst <= 1e-12,
                       f"max |wrong after compress - eta^3| = {_fmt(worst)} over 50 "
                       f"random unitaries (tol 1e-12)")


def check_fpqs_balance_mass_cubing(seed: int) -> CheckResult:
    worst = 0.0
    for inside, before, after in _random_levels(seed, fpqs.pi3_balance):
        u0 = float(np.linalg.norm(before[inside]) ** 2)
        u1 = float(np.linalg.norm(after[inside]) ** 2)
        worst = max(worst, abs(u1 - u0 ** 3))
    return CheckResult("fpqs.balance_mass_cubing", worst <= 1e-12,
                       f"max |in-window mass after balance - u^3| = {_fmt(worst)} (tol 1e-12)")


def check_fpqs_measured_vs_predicted(pea_op, spec, target, layout, eta: float) -> CheckResult:
    """The recursion error law at q = 1, 2 on the estimation operator pea_op,
    whose measured (extended-precision) eta is given."""
    ok = eta <= fpqs.ETA_REGIME
    details = [f"eta={_fmt(eta)}"]
    slack = 1.0 + 10.0 * eta * eta
    for q in (1, 2):
        pred = fpqs.predict_schedule(q, eta)
        level = fpqs.build_fixed_point(pea_op, q, layout.z_window())
        got = pea.measure_eta(level, spec, target, layout, dtype=EXTENDED)
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


def check_fpqs_recurrences() -> CheckResult:
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


def check_fpqs_counter_law(pea_op, spec, layout) -> CheckResult:
    """N_P = 9^q and N_U = 9^q * 2^mu for one level-q application, q <= 3."""
    window = layout.z_window()
    wdim = layout.work_dim
    ok = True
    details = []
    for q in range(4):
        op = fpqs.build_fixed_point(pea_op, q, window)
        tally = Tally()
        apply(op, _columns(spec)[:1], layout.sigma_state(), tally)
        n_p, n_u = tally.get("P"), tally.get("U")
        ok = ok and n_p == 9 ** q and n_u == 9 ** q * wdim
        details.append(f"q={q}: N_P={n_p} N_U={n_u}")
    return CheckResult("fpqs.counter_law", ok,
                       "; ".join(details) + f" (want 9^q and 9^q*{wdim})")


def check_fpqs_block_locality(pea_op, spec, layout, q: int) -> CheckResult:
    op = fpqs.build_fixed_point(pea_op, q, layout.z_window())
    worst = _main_disturbance(op, spec, layout)
    return CheckResult("fpqs.block_locality", worst <= 1e-12,
                       f"main-factor disturbance under level-{q} recursion = {_fmt(worst)} "
                       f"(tol 1e-12)")


# --- voting -----------------------------------------------------------------

def check_voting_tensor_equivalence(layout, nus) -> CheckResult:
    """The nu-register tensor's majority loss equals the binomial tail of
    each direction's single-register eta, on a two-direction model."""
    spec = spectral.SpectralUnitary(dim=2, eigenphases=(0.02, 2.1), delta=1.9)
    target = spectral.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)
    shifted = spectral.build_shifted(spec, target)
    etas = pea.measure_eta(pea.build_pea(shifted, layout), spec, target, layout)
    worst = 0.0
    for nu in nus:
        h = voting.build_h_tensor(shifted.eigensystem[0], nu, layout)
        majority = voting.majority_projector(layout.z_window(), nu)
        outs = apply(h, _columns(spec), np.eye(1, majority.dim)[0])  # sigma on nu registers
        for entry, out in zip(etas.entries, outs):
            lose = majority.complement() if entry.marked else majority
            got = float(np.linalg.norm(out[:, lose.mask()]))
            want = voting.majority_tail_amplitude(entry.eta ** 2, nu)
            worst = max(worst, abs(got - want))
    return CheckResult("voting.tensor_equivalence", worst <= 1e-10,
                       f"max |tensor - binomial| amplitude over nu in "
                       f"{{{','.join(map(str, nus))}}} = "
                       f"{_fmt(worst)} (tol 1e-10)")


def check_voting_tail_monotonicity() -> CheckResult:
    ok = True
    for p in (0.001, 0.05, 0.3, 0.49):
        tails = [voting.majority_tail_amplitude(p, nu) for nu in range(1, 23, 2)]
        ok = ok and all(b < a for a, b in zip(tails, tails[1:]))
    return CheckResult("voting.tail_monotonicity", ok,
                       "tail amplitude strictly decreasing in nu for p in "
                       "{0.001, 0.05, 0.3, 0.49}")


def check_voting_hoeffding() -> CheckResult:
    p = 2.0 ** -10
    worst_ratio = 0.0
    for nu in range(1, 42, 2):
        ratio = voting.majority_tail_amplitude(p, nu) / voting.hoeffding_amplitude_bound(nu)
        worst_ratio = max(worst_ratio, ratio)
    return CheckResult("voting.hoeffding_bound", worst_ratio <= 1.0,
                       f"max tail/e^(-nu/4) ratio at p=2^-10 over odd nu<=41 = "
                       f"{_fmt(worst_ratio)} (bound 1)")


# --- marker -----------------------------------------------------------------

def check_marker_workspace_restoration(spec, target, layout) -> CheckResult:
    """On psi_i (x) sigma, the level-1 marker turned by the eigenbasis
    leaves the residual its workspace displacement and off-psi_i mass add to."""
    assembly = marker.build_assembly(spec, target, layout, "fixed_point", q=1)
    joint = in_frame(assembly.frame, spec.eigenbasis, assembly.work_dim)
    worst = 0.0
    psis = _columns(spec)
    sigma = layout.sigma_state()
    outs = apply(joint, psis, sigma)
    for i, (psi, out) in enumerate(zip(psis, outs)):
        phase = np.exp(1j * target.phi) if i in target.marked_indices else 1.0
        residual = np.linalg.norm(out - phase * np.outer(psi, sigma))
        block = psi.conj() @ out
        cross_mass = np.linalg.norm(out - np.outer(psi, block)) ** 2
        recon = np.sqrt(np.linalg.norm(block - phase * sigma) ** 2 + cross_mass)
        worst = max(worst, abs(recon - residual))
    return CheckResult("marker.workspace_restoration", worst <= 1e-10,
                       f"residual vs workspace-displacement decomposition gap = "
                       f"{_fmt(worst)} (tol 1e-10)")


def check_marker_superposition_bound(spec, target, layout, n_random: int,
                                     seed: int) -> CheckResult:
    """A level-1 report's superposition residual is within its eigen max."""
    assembly = marker.build_assembly(spec, target, layout, "fixed_point", q=1)
    report = marker.evaluate_marker(assembly, spec, target, n_random=n_random, seed=seed)
    ok = report.superposition_within_eigen_max
    return CheckResult("marker.superposition_bound", ok,
                       f"superposition residual {_fmt(report.superposition_residual)} <= "
                       f"eigen max {_fmt(report.worst_residual)} + 1e-10")


def check_marker_phi_additivity(spec, target, layout, pairs) -> CheckResult:
    """For (p1, p2) in pairs, the plain marker turned by the eigenbasis
    composes in its angle on each eigenstate, up to the three residuals."""
    psis, sigma = _columns(spec), layout.sigma_state()
    worst = 0.0
    for p1, p2 in pairs:
        targets = [spectral.MarkTarget.resolve(spec, target.psi_prime, p, b=target.b)
                   for p in (p1, p2, p1 + p2)]
        frames = [marker.build_assembly(spec, t, layout, "pea").frame for t in targets]
        ops = [in_frame(frame, spec.eigenbasis, layout.work_dim) for frame in frames]
        outs = [apply(op, psis, sigma) for op in ops]
        for i, psi in enumerate(psis):
            state = np.outer(psi, sigma)
            composed = ops[0].apply_to(outs[1][i].ravel())
            budget = 0.0
            for t, out in zip(targets, outs):
                phase = np.exp(1j * t.phi) if i in t.marked_indices else 1.0
                budget += float(np.linalg.norm(out[i] - phase * state))
            gap = float(np.linalg.norm(composed - outs[2][i].ravel())) - budget
            worst = max(worst, gap)
    return CheckResult("marker.phi_additivity", worst <= 1e-10,
                       f"max composition defect beyond residual budget = {_fmt(worst)} "
                       f"(tol 1e-10)")


def check_marker_joint_oracle(spec, target, layout, variants, n_random: int, seed: int,
                              tol: float) -> CheckResult:
    """The two steps no evaluation makes, on a model with an eigenbasis E:
    for each (variant, q, nu) in variants, the physical marker
    H . inner . H turned by E, on E c (x) sigma, is (E x H) times inner on
    c (x) u, u = H sigma, for c = e_i (psi_i) and n_random normal draws."""
    basis = spec.eigenbasis
    rng = np.random.default_rng(seed)
    draws = rng.normal(size=(n_random, spec.dim)) + 1j * rng.normal(size=(n_random, spec.dim))
    coeffs = [*np.eye(spec.dim), *(draws / np.linalg.norm(draws, axis=1, keepdims=True))]
    worst, names = 0.0, []
    for variant, q, nu in variants:
        assembly = marker.build_assembly(spec, target, layout, variant, q=q, nu=nu)
        joint = in_frame(assembly.frame, basis, assembly.work_dim)
        turned = apply(joint, [basis @ c for c in coeffs], np.eye(1, assembly.work_dim)[0])
        inner = apply(assembly.inner, coeffs, assembly.uniform())
        hadamard = pea.walsh_hadamard(assembly.inner.dim, assembly.work_dim)
        for t, out in zip(turned, inner):
            read = hadamard.apply_to((basis @ out).ravel())
            worst = max(worst, float(np.abs(t.ravel() - read).max()))
        names.append(variant + {"fixed_point": f" q={q}", "voting": f" nu={nu}"}.get(variant, ""))
    return CheckResult("marker.joint_oracle", worst <= tol,
                       f"turned marker vs (E x H) inner outputs on psi_i and {n_random} "
                       f"probes E c over {', '.join(names)}: max deviation = "
                       f"{_fmt(worst)} (tol {tol:g})")


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


def check_complexity_planner(decades) -> CheckResult:
    """At eta 2^-5: the planned level never falls as eps = 10^-k tightens
    over k in decades, plan(1e-8)=2, plan(0.1)=0, and a budget of 10^6
    invocations plans q=2."""
    eta = 2.0 ** -5
    qs = [complexity.plan_recursion(eta, 10.0 ** -k) for k in decades]
    ok = all(b >= a for a, b in zip(qs, qs[1:]))
    ok = ok and complexity.plan_recursion(eta, 1e-8) == 2
    ok = ok and complexity.plan_recursion(eta, 0.1) == 0
    ok = ok and complexity.plan_recursion(eta, complexity.PLAN_SAFETY / 10 ** 6) == 2
    return CheckResult("complexity.planner", ok,
                       f"q over eps=1e-{decades[0]}..1e-{decades[-1]}: {qs}; plan(1e-8)=2, "
                       f"plan(0.1)=0, plan(0.01/1e6)=2")


def check_complexity_table_consistency(ctx) -> CheckResult:
    eps = 1e-8
    measured = marker.measured_cell(ctx.calib, eps)
    q = measured["q"]
    rows = complexity.tabulate([AUDIT_DELTA], [eps], [measured])
    cell = [r for r in rows if r["variant"] == "fixed_point"][0]
    want = 2 * 9 ** q * 2 ** ctx.layout.mu
    ok = cell["N_U_measured"] == want
    return CheckResult("complexity.table_consistency", ok,
                       f"measured fixed-point N_U per marker application = "
                       f"{cell['N_U_measured']} (want 2*9^{q}*2^{ctx.layout.mu} = {want})")


def run_audit(seed: int) -> list[CheckResult]:
    """Every check in report order, each at the audit's pinned configuration."""
    ctx = _Context(seed)
    grid_layout = pea.WorkspaceLayout(mu=5, window=2)
    wdim = grid_layout.work_dim
    grid_spec = spectral.SpectralUnitary(
        dim=2, eigenphases=(2 * np.pi * 1 / wdim, 2 * np.pi * 12 / wdim), delta=1.5)
    grid_target = spectral.MarkTarget.resolve(grid_spec, psi_prime=0.0, phi=np.pi, b=0.2)
    kernel_models = []
    for lam in (0.3, 1.7, -2.2):
        spec = spectral.SpectralUnitary(dim=2, eigenphases=(0.002, lam), delta=0.1)
        kernel_models.append(
            (spec, spectral.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)))
    return [
        check_statevec_unitarity(ctx),
        check_statevec_dense_agreement(ctx),
        check_statevec_adjoint(ctx),
        check_spectral_marker_composition(ctx),
        check_spectral_shift_commutes(ctx.small_spec, ctx.small_target),
        check_pea_grid_exactness(grid_spec, grid_target, grid_layout),
        check_pea_block_structure(ctx),
        check_pea_scaling_constant(),
        check_pea_kernel_vs_simulation(pea.WorkspaceLayout(mu=6, window=3), kernel_models,
                                       1e-10),
        check_pea_calibration_reverified(ctx),
        check_fpqs_exact_cubing(21),
        check_fpqs_balance_mass_cubing(22),
        check_fpqs_measured_vs_predicted(ctx.pea_op, ctx.spec, ctx.target, ctx.layout,
                                         ctx.eta_report.eta),
        check_fpqs_recurrences(),
        check_fpqs_counter_law(ctx.small_pea, ctx.small_spec, ctx.small_layout),
        check_fpqs_block_locality(ctx.small_pea, ctx.small_spec, ctx.small_layout, 1),
        check_voting_tensor_equivalence(pea.WorkspaceLayout(mu=2, window=0), (1, 3, 5)),
        check_voting_tail_monotonicity(),
        check_voting_hoeffding(),
        check_marker_workspace_restoration(ctx.small_spec, ctx.small_target, ctx.small_layout),
        check_marker_superposition_bound(ctx.small_spec, ctx.small_target, ctx.small_layout,
                                         6, 31),
        check_marker_phi_additivity(ctx.small_spec, ctx.small_target, ctx.small_layout,
                                    ((0.7, 1.3), (np.pi / 2, np.pi / 2))),
        check_marker_joint_oracle(ctx.small_spec, ctx.small_target, ctx.small_layout,
                                  (("pea", None, None), ("voting", None, 3),
                                   ("fixed_point", 2, None)), 2, 34, 1e-12),
        check_marker_phi_zero_identity(ctx),
        check_complexity_counter_consistency(ctx),
        check_complexity_planner(range(1, 13)),
        check_complexity_table_consistency(ctx),
    ]


def format_results(results) -> str:
    lines = [f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}" for r in results]
    passed = sum(r.ok for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"

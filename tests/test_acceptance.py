"""Acceptance suite: one test per criterion, each printing a PASS line with
the governing numbers once its assertions hold.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  The heavyweight fixtures (calibration at delta=0.4, b=0.05) are
session-scoped and shared with the unit tests.
"""

import math

import numpy as np

import eigenmark as em
from eigenmark import cli, fpqs

from conftest import haar_unitary, EXTENDED


def report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


def test_c1_exact_pi3_cubing():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        mu = int(rng.integers(1, 7))
        wdim = 2 ** mu
        window = em.WorkspaceLayout(mu, int(rng.integers(0, max(1, wdim // 2)))).z_window()
        v = em.from_matrix(haar_unitary(rng, wdim))
        sigma = np.zeros(wdim, complex)
        sigma[0] = 1.0
        eta = np.linalg.norm(v.apply_to(sigma)[~window.mask()])
        out = em.pi3_compress(v, window).apply_to(sigma)
        worst = max(worst, abs(np.linalg.norm(out[~window.mask()]) - eta ** 3))
    assert worst <= 1e-12
    report(f"1 PASS exact pi/3 cubing: max |wrong - eta^3| = {worst:.3e} over "
           f"50 random unitaries (tol 1e-12)")


def test_c2_recursion_error_law(setup_04):
    spec, target = setup_04["spec"], setup_04["target"]
    layout, pea_op = setup_04["layout"], setup_04["pea_op"]
    eta = setup_04["eta_report"].eta
    assert eta <= 2.0 ** -5
    window = layout.z_window()
    slack = 1 + 10 * eta * eta
    lines = []
    for q in (1, 2):
        fp = em.build_fixed_point(pea_op, q, window)
        pred = em.predict_schedule(q, eta)
        for i in range(spec.dim):
            marked = i in target.marked_indices
            state = np.outer(spec.basis_column(i).astype(EXTENDED),
                             layout.sigma_state(EXTENDED)).ravel()
            out = fp.apply_to(state).reshape(spec.dim, layout.work_dim)
            wrong = ~window.mask() if marked else window.mask()
            got = float(np.linalg.norm(out[:, wrong]))
            bound = (pred.marked_magnitude if marked else pred.unmarked_magnitude) * slack
            assert got <= bound
            assert got <= pred.schedule.eps
            side = "marked" if marked else "unmarked"
            lines.append(f"q={q} {side}: {got:.3e} <= {bound:.3e}, eps_q="
                         f"{pred.schedule.eps:.3e}")
    report(f"2 PASS recursion error law at mu={layout.mu}, eta={eta:.5f}: "
           + "; ".join(lines))


def test_c3_counter_law(small_model):
    spec, target, layout = small_model
    op = em.build_pea(em.build_shifted(spec, target), layout)
    wdim = layout.work_dim
    for q in range(4):
        fp = em.build_fixed_point(op, q, layout.z_window())
        tally = em.Tally()
        fp.apply_to(np.outer(spec.basis_column(0), layout.sigma_state()).ravel(), tally)
        assert tally.get("P") == 9 ** q
        assert tally.get("U") == 9 ** q * wdim
    report(f"3 PASS counter law: N_P = 9^q and N_U = 9^q * 2^mu exactly for "
           f"q in 0..3 at mu={layout.mu}")


def test_c4_schedule_recurrences():
    worst = 0.0
    for q in range(6):
        here = fpqs.RecursionSchedule.closed_form(q)
        step = here.successor()
        want = fpqs.RecursionSchedule.closed_form(q + 1)
        assert step.m == want.m
        worst = max(worst, abs(step.g - want.g) / want.g,
                    abs(step.h - want.h) / want.h)
        if want.eps > 0.0:
            worst = max(worst, abs(step.eps - want.eps) / want.eps)
    assert worst <= 1e-12
    eps2 = fpqs.RecursionSchedule.closed_form(2).eps
    exact = (3.0 ** 0.75 * 2.0 ** -5) ** 9
    assert abs(eps2 - 4.72e-11) <= 0.01 * exact
    report(f"4 PASS schedule recurrences: max relative deviation {worst:.3e} for "
           f"q <= 6; eps_2 = {eps2:.4e} within 1% of 4.72e-11")


def test_c5_marker_contract(setup_04):
    spec, target = setup_04["spec"], setup_04["target"]
    layout = setup_04["layout"]
    eta = setup_04["eta_report"].eta
    h2 = fpqs.RecursionSchedule.closed_form(2).h
    assembly = em.build_assembly(spec, target, layout, "fixed_point", q=2)
    rep = em.evaluate_marker(assembly, spec, target, n_random=3, seed=105)
    bound = 4 * h2 * eta ** 9
    assert rep.worst_residual <= bound

    spec0, target0 = em.verification_model(0.4, 0.05,
                                           setup_04["calib"].lam_marked,
                                           setup_04["calib"].lam_unmarked, phi=0.0)
    assembly0 = em.build_assembly(spec0, target0, layout, "fixed_point", q=2)
    rep0 = em.evaluate_marker(assembly0, spec0, target0, n_random=3, seed=105)
    ident = max(rep0.worst_residual, rep0.superposition_residual)
    assert ident <= 1e-12
    report(f"5 PASS marker contract: q=2 phi=pi worst residual "
           f"{rep.worst_residual:.3e} <= 4*h_2*eta^9 = {bound:.3e}; phi=0 residual "
           f"{ident:.3e} <= 1e-12")


def test_c6_pea_scaling():
    delta = 0.4
    worst_const = 0.0
    details = []
    for mu in range(6, 13):
        choice = em.best_window(mu, delta, 0.05)
        spec, target = em.verification_model(delta, 0.05, choice.lam_marked,
                                             choice.lam_unmarked)
        layout = em.WorkspaceLayout(mu, choice.window)
        op = em.build_pea(em.build_shifted(spec, target), layout)
        eta = em.measure_eta(op, spec, target, layout).eta
        const = eta * math.sqrt(2 ** mu * delta)
        worst_const = max(worst_const, const)
        details.append(f"mu={mu}: {const:.2f}")
    assert worst_const <= 10.0

    wdim = 2 ** 6
    spec, target = em.verification_model(delta, 0.05, 0.0, 2 * np.pi * 20 / wdim)
    layout = em.WorkspaceLayout(6, 2)
    op = em.build_pea(em.build_shifted(spec, target), layout)
    aligned = em.measure_eta(op, spec, target, layout).eta
    assert aligned <= 1e-12
    report(f"6 PASS estimation scaling: eta*sqrt(2^mu*delta) bounded by "
           f"{worst_const:.3f} over mu=6..12 ({'; '.join(details)}); grid-aligned "
           f"eta = {aligned:.2e} <= 1e-12")


def test_c7_majority_voting():
    layout = em.WorkspaceLayout(mu=3, window=1)
    spec = em.SpectralUnitary(dim=2, eigenphases=(0.02, 2.1), delta=1.9)
    target = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)
    op = em.build_pea(em.build_shifted(spec, target), layout)
    etas = em.measure_eta(op, spec, target, layout)
    h = em.build_h_tensor(op, 3, layout)
    majority = em.majority_projector(layout.z_window(), 3)
    worst = 0.0
    for entry in etas.entries:
        work = np.zeros(layout.work_dim ** 3, complex)
        work[0] = 1.0
        out = h.apply_to(np.outer(spec.basis_column(entry.index), work).ravel())
        lose = ~majority.mask() if entry.marked else majority.mask()
        got = float(np.linalg.norm(out.reshape(spec.dim, -1)[:, lose]))
        want = math.sqrt(sum(
            math.comb(3, k) * entry.eta ** (2 * k) * (1 - entry.eta ** 2) ** (3 - k)
            for k in (2, 3)))
        worst = max(worst, abs(got - want))
    assert worst <= 1e-10

    p = 2.0 ** -10
    margin = min(em.hoeffding_amplitude_bound(nu) - em.majority_tail_amplitude(p, nu)
                 for nu in range(1, 42, 2))
    assert margin >= 0.0
    report(f"7 PASS majority voting: tensor vs binomial max gap {worst:.3e} "
           f"(tol 1e-10); tail <= e^(-nu/4) for p=2^-10, odd nu <= 41")


def test_c8_complexity_tradeoff():
    deltas = [10.0 ** -k for k in range(1, 4)]
    epss = [10.0 ** -k for k in range(2, 9)]
    rows = em.tabulate(deltas, epss)
    cells = {(r["variant"], r["delta"], r["eps"]): r for r in rows}
    for delta in deltas:
        f_ancillas = {cells[("fixed_point", delta, eps)]["N_A"] for eps in epss}
        assert len(f_ancillas) == 1
        for eps in epss:
            h = cells[("voting", delta, eps)]
            assert h["N_A"] / (math.log(1 / eps) * math.log2(1 / delta)) == 1.0
            f = cells[("fixed_point", delta, eps)]
            ratio = f["N_U_model"] / h["N_U_model"]
            assert abs(ratio / math.log(1 / eps) - 1.0) <= 1e-12
    report("8 PASS complexity tradeoff: fixed-point ancilla column constant in eps; "
           "voting ancillas scale as ln(1/eps)*log2(1/delta); fixed-point/voting "
           "U-cost ratio is ln(1/eps) across the grid")


def test_c9_audit_determinism(tmp_path):
    out1 = tmp_path / "a1"
    out2 = tmp_path / "a2"
    code1 = cli.main(["audit", "--out", str(out1), "--seed", "0"])
    code2 = cli.main(["audit", "--out", str(out2), "--seed", "0"])
    assert code1 == 0 and code2 == 0
    bytes1 = (out1 / "audit.txt").read_bytes()
    bytes2 = (out2 / "audit.txt").read_bytes()
    assert bytes1 == bytes2
    assert (out1 / "audit.json").read_bytes() == (out2 / "audit.json").read_bytes()
    n_checks = bytes1.decode().strip().splitlines()[-1]
    report(f"9 PASS audit determinism: two runs byte-identical, exit 0, {n_checks}")

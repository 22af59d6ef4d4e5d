"""Acceptance suite: one test per criterion, each printing a PASS line with
the governing numbers once its assertions hold.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  A criterion that an audit check shares calls that check (the one
function `eigenmark audit` runs) at the criterion's own configuration and
prints its detail line.  The heavyweight fixtures (calibration at
delta=0.4, b=0.05) are session-scoped and shared with the unit tests.
"""

import math

import numpy as np

import eigenmark as em
from eigenmark import audit, cli, fpqs


def report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


def passes(criterion: str, result: audit.CheckResult) -> None:
    """Assert a shared check held and print its PASS line."""
    assert result.ok, result.detail
    report(f"{criterion} PASS {result.name}: {result.detail}")


def test_c1_exact_pi3_cubing():
    passes("1", audit.check_fpqs_exact_cubing(101))


def test_c2_recursion_error_law(setup_04):
    passes("2", audit.check_fpqs_measured_vs_predicted(
        setup_04["pea_op"], setup_04["spec"], setup_04["target"], setup_04["layout"],
        setup_04["eta_report"].eta))


def test_c3_counter_law(small_model):
    spec, target, layout = small_model
    op = em.build_pea(em.build_shifted(spec, target), layout)
    passes("3", audit.check_fpqs_counter_law(op, spec, layout))


def test_c4_schedule_recurrences():
    passes("4", audit.check_fpqs_recurrences())
    eps2 = fpqs.RecursionSchedule.closed_form(2).eps
    exact = (3.0 ** 0.75 * 2.0 ** -5) ** 9
    assert abs(eps2 - 4.72e-11) <= 0.01 * exact
    report(f"4 PASS eps_2 = {eps2:.4e} within 1% of 4.72e-11")


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
    report(f"6 PASS estimation scaling: eta*sqrt(2^mu*delta) bounded by "
           f"{worst_const:.3f} over mu=6..12 ({'; '.join(details)})")

    spec, target = em.verification_model(delta, 0.05, 0.0, 2 * np.pi * 20 / 2 ** 6)
    passes("6", audit.check_pea_grid_exactness(spec, target, em.WorkspaceLayout(6, 2)))


def test_c7_majority_voting():
    passes("7", audit.check_voting_tensor_equivalence(em.WorkspaceLayout(mu=3, window=1),
                                                      (3,)))
    passes("7", audit.check_voting_hoeffding())


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
    text1 = (out1 / "audit.txt").read_text()
    failed = [line for line in text1.splitlines() if line.startswith("FAIL")]
    assert code1 == 0 and code2 == 0, "\n".join(failed)
    assert text1 == (out2 / "audit.txt").read_text()
    assert (out1 / "audit.json").read_bytes() == (out2 / "audit.json").read_bytes()
    n_checks = text1.strip().splitlines()[-1]
    report(f"9 PASS audit determinism: two runs byte-identical, exit 0, {n_checks}")

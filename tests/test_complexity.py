import csv
import math

import numpy as np
import pytest

import eigenmark as em
from eigenmark import audit, cli, complexity


def test_plan_examples():
    # plan(1e-8)=2 and plan(0.1)=0 at eta 2^-5, the examples' own two eps.
    check = audit.check_complexity_planner((1, 8))
    assert check.ok, check.detail
    eta = 2.0 ** -5
    # eps_1 ~ 3.6e-4 fails a 1e-8 budget, the level-2 value ~2.1e-11 passes
    s1 = em.RecursionSchedule.closed_form(1)
    s2 = em.RecursionSchedule.closed_form(2)
    assert s1.h * eta ** s1.m > 1e-8 > s2.h * eta ** s2.m


def test_planner_monotonicity():
    check = audit.check_complexity_planner(range(1, 16))
    assert check.ok, check.detail


def test_planner_input_validation():
    with pytest.raises(ValueError, match="regime"):
        em.plan_recursion(0.1, 1e-8)
    with pytest.raises(ValueError, match="eps"):
        em.plan_recursion(2.0 ** -5, 0.0)


def test_counters_from_tally():
    tally = em.Tally()
    tally.charge((("U", 8), ("P", 1)))
    tally.charge((("U", 8), ("P", 1)))
    counters = em.ComplexityCounters.from_tally(tally, ancillas=3)
    assert (counters.n_u, counters.n_a, counters.n_p) == (16, 3, 2)
    assert counters.pea_consistent(3)
    assert not counters.pea_consistent(4)
    with pytest.raises(ValueError):
        em.ComplexityCounters(-1, 0, 0)


def test_exact_counters_at_mu9_q2():
    spec = em.SpectralUnitary(dim=2, eigenphases=(0.001, 2.0), delta=1.5)
    target = em.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)
    layout = em.WorkspaceLayout(mu=9, window=4)
    op = em.build_pea(em.build_shifted(spec, target), layout)
    fp = em.build_fixed_point(op, 2, layout.z_window())
    tally = em.Tally()
    fp.apply_to(np.outer(spec.basis_column(0), layout.sigma_state()).ravel(), tally)
    counters = em.ComplexityCounters.from_tally(tally, ancillas=layout.mu)
    assert counters.n_u == 81 * 512 == 41472
    assert counters.n_p == 81
    assert counters.n_a == 9


def test_table_fixed_point_ancillas_constant_in_eps():
    rows = em.tabulate([1e-2], [10.0 ** -k for k in range(2, 9)])
    f_rows = [r for r in rows if r["variant"] == "fixed_point"]
    assert len({r["N_A"] for r in f_rows}) == 1


def test_table_voting_ancillas_product_of_logs():
    deltas = [1e-1, 1e-3]
    epss = [1e-2, 1e-6]
    rows = em.tabulate(deltas, epss)
    for r in rows:
        if r["variant"] == "voting":
            want = math.log(1 / r["eps"]) * math.log2(1 / r["delta"])
            assert r["N_A"] == pytest.approx(want, rel=1e-12)
        if r["variant"] == "pea":
            want = math.log2(1 / r["delta"]) + 2 * math.log2(1 / r["eps"])
            assert r["N_A"] == pytest.approx(want, rel=1e-12)


def test_table_fixed_point_u_cost_exceeds_voting_by_log_factor():
    deltas = [1e-1, 1e-2, 1e-3]
    epss = [1e-2, 1e-4, 1e-8]
    rows = em.tabulate(deltas, epss)
    cells = {(r["variant"], r["delta"], r["eps"]): r for r in rows}
    for delta in deltas:
        for eps in epss:
            f = cells[("fixed_point", delta, eps)]
            h = cells[("voting", delta, eps)]
            assert f["N_U_model"] / h["N_U_model"] == pytest.approx(
                math.log(1 / eps), rel=1e-12)


def test_table_measured_merge_and_csv(tmp_path):
    measured = [{"variant": "fixed_point", "delta": 0.4, "eps": 1e-8,
                 "mu": 14, "q": 2, "nu": None, "n_u": 2654208, "n_a": 14, "n_p": 162}]
    rows = em.tabulate([0.4], [1e-8], measured)
    cell = [r for r in rows if r["variant"] == "fixed_point"][0]
    assert cell["N_U_measured"] == 2654208
    assert cell["mu"] == 14 and cell["q"] == 2
    path = tmp_path / "table.csv"
    cli._write_csv(path, complexity.TABLE_COLUMNS, rows)
    with open(path, newline="") as fh:
        got = list(csv.DictReader(fh))
    assert list(got[0].keys()) == list(complexity.TABLE_COLUMNS)
    f_row = [r for r in got if r["variant"] == "fixed_point"][0]
    assert f_row["N_U_measured"] == "2654208"
    assert f_row["q"] == "2"
    pea_row = [r for r in got if r["variant"] == "pea"][0]
    assert pea_row["N_U_measured"] == ""


def test_table_requires_nonempty_grids():
    with pytest.raises(ValueError, match="nonempty"):
        em.tabulate([], [1e-3])


@pytest.mark.parametrize("deltas, epss, match", [
    ([0], [1e-3], "delta_grid"),
    ([-0.0], [1e-3], "delta_grid"),
    ([False], [1e-3], "delta_grid"),
    ([math.nan], [1e-3], "delta_grid"),
    ([1.0], [0.0], "eps_grid"),
    ([1.0], [-1e-3], "eps_grid"),
    ([1.0], [math.inf], "eps_grid"),
    ([3.0], [1e-3, 1e-300], "delta \\* eps\\^2"),
])
def test_table_rejects_grid_entries_outside_the_models(deltas, epss, match):
    # Each of these used to end inside the cost models in a
    # ZeroDivisionError, a math domain error or rows of nan.
    with pytest.raises(ValueError, match=match):
        em.tabulate(deltas, epss)

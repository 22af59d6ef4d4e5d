#!/usr/bin/env python3
"""The space-time tradeoff between voting and the fixed-point recursion.

With unit-constant cost models: the plain estimator needs 1/(delta eps^2)
operator applications; voting cuts that to (1/delta) ln(1/eps) but pays
ln(1/eps) * log2(1/delta) ancillas; the fixed-point recursion keeps the
ancilla count independent of eps entirely, at the price of one extra
ln(1/eps) factor in applications.  The table below shows the models, then
one measured cell from an actual simulation backs the fixed-point column.
"""

import math

import eigenmark as em
from eigenmark import complexity

deltas = [1e-1, 1e-2, 1e-3]
epss = [1e-2, 1e-4, 1e-6, 1e-8]

rows = em.tabulate(deltas, epss)
cells = {(r["variant"], r["delta"], r["eps"]): r for r in rows}

print("ancilla cost N_A (unit-constant models)")
print(f"{'delta':>8} {'eps':>8} {'pea':>10} {'voting':>10} {'modified':>10} "
      f"{'fixed_point':>12}")
for delta in deltas:
    for eps in epss:
        line = [f"{delta:>8g}", f"{eps:>8g}"]
        for variant, width in (("pea", 10), ("voting", 10), ("modified", 10),
                               ("fixed_point", 12)):
            line.append(f"{cells[(variant, delta, eps)]['N_A']:>{width}.2f}")
        print(" ".join(line))
print("-> the fixed_point column never moves with eps")

print()
print("operator-application ratio fixed_point/voting vs ln(1/eps)")
for eps in epss:
    f = cells[("fixed_point", 1e-2, eps)]["N_U_model"]
    h = cells[("voting", 1e-2, eps)]["N_U_model"]
    print(f"  eps={eps:>6g}: ratio {f / h:>7.3f}   ln(1/eps) = {math.log(1 / eps):.3f}")

print()
print("one measured cell (delta=3.0, eps=1e-4): counters from a real run")
calib = em.calibrate_workspace(3.0, 0.05)
eta = min(calib.eta, complexity.ETA_REGIME)
q = em.plan_recursion(eta, 1e-4)
spec, target = em.verification_model(3.0, 0.05, calib.lam_marked, calib.lam_unmarked)
layout = calib.layout()
assembly = em.build_assembly(spec, target, layout, "fixed_point", q=q)
counters = em.application_counters(assembly)
print(f"  planned recursion level q={q} at eta={calib.eta:.5f}")
print(f"  one marker application: N_P={counters.n_p} (= 2*9^{q}), "
      f"N_U={counters.n_u} (= N_P * 2^{layout.mu}), N_A={counters.n_a}")

#!/usr/bin/env python3
"""The pi/3 recursion in action: error cubed per level, cost times nine.

Starting from an estimation operator with worst-case error eta <= 2^-5,
each recursion level wraps it in two three-fold products.  The wrong
amplitude falls from eta to ~g_q eta^(3^q) (marked input) and
~h_q eta^(3^q) (any other eigenstate), while the operator count rises to
exactly 9^q.  Measurements run in extended precision because the level-2
magnitudes sit below the double-precision noise floor.
"""

import numpy as np

import eigenmark as em
from eigenmark.statevec import EXTENDED

DELTA = 3.0
B = 0.05

calib = em.calibrate_workspace(DELTA, B)
spec, target = em.verification_model(DELTA, B, calib.lam_marked, calib.lam_unmarked)
layout = calib.layout()
pea_op = em.build_pea(em.build_shifted(spec, target), layout)
eta = em.measure_eta(pea_op, spec, target, layout, dtype=EXTENDED).eta
window = layout.z_window()

print(f"workspace: mu={layout.mu}, window={layout.window}; measured eta={eta:.6f}")
print()
print(f"{'q':>2} {'N_P':>5} {'N_U':>8} {'side':>9} {'measured':>12} "
      f"{'leading-order':>14} {'eps_q':>10}")
for q in range(3):
    fp = em.build_fixed_point(pea_op, q, window)
    pred = em.predict_schedule(q, eta)
    tally = em.Tally()
    em.apply(fp, [spec.basis_column(0)], layout.sigma_state(), tally)
    for entry in em.measure_eta(fp, spec, target, layout, dtype=EXTENDED).entries:
        bound = pred.marked_magnitude if entry.marked else pred.unmarked_magnitude
        side = "marked" if entry.marked else "unmarked"
        print(f"{q:>2} {tally.get('P'):>5} {tally.get('U'):>8} {side:>9} "
              f"{entry.eta:>12.3e} {bound:>14.3e} {pred.schedule.eps:>10.2e}")

print()
print("exact per-level laws (any unitary, any window):")
print("  compress: wrong amplitude beta -> beta^3")
print("  balance:  in-window mass u -> u^3")
v = em.from_matrix(em.haar_unitary(np.random.default_rng(0), 8))
small = em.WorkspaceLayout(3, 1)
win, sigma = small.z_window(), small.sigma_state()
beta = np.linalg.norm(v.apply_to(sigma)[~win.mask()])
after = np.linalg.norm(em.pi3_compress(v, win).apply_to(sigma)[~win.mask()])
print(f"  random 8-dim unitary: beta={beta:.6f}, after compress={after:.6e}, "
      f"beta^3={beta ** 3:.6e}")

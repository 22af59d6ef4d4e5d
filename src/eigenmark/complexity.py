"""Exact resource counters, the asymptotic cost models, and the
recursion-depth planner.

Two kinds of numbers are kept strictly apart: *measured* counters are
exact integer tallies from driving operators on states; *model* values
evaluate the asymptotic formulas with unit constants and are only
meaningful as ratios and trends across a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fpqs import ETA_REGIME, log_wrong_magnitudes
from .statevec import Tally

PLAN_SAFETY = 0.01  # the budget share c of one of Q invocations: eps = c / Q

TABLE_COLUMNS = ("variant", "delta", "eps", "mu", "q", "nu",
                 "N_U_model", "N_U_measured", "N_A", "N_P")

_VARIANT_ORDER = ("pea", "voting", "modified", "fixed_point")


@dataclass(frozen=True)
class ComplexityCounters:
    """N_U applications of U or U+, N_A ancilla qubits, N_P applications of
    the estimation operator or its adjoint."""

    n_u: int
    n_a: int
    n_p: int

    def __post_init__(self) -> None:
        if min(self.n_u, self.n_a, self.n_p) < 0:
            raise ValueError("counters must be nonnegative")

    @classmethod
    def from_tally(cls, tally: Tally, ancillas: int) -> "ComplexityCounters":
        return cls(n_u=tally.get("U"), n_a=int(ancillas), n_p=tally.get("P"))

    def pea_consistent(self, mu: int) -> bool:
        """Estimation-derived constructions satisfy N_U = N_P * 2^mu."""
        return self.n_u == self.n_p * 2 ** mu


def plan_recursion(eta: float, eps_target: float) -> int:
    """Smallest recursion level q with h_q eta^{3^q} <= eps_target, in log
    space (fpqs.log_wrong_magnitudes).  eps_target >= eta yields q = 0."""
    if not (0.0 < eta <= ETA_REGIME):
        raise ValueError(f"eta {eta!r} outside the working regime (0, 2^-5]")
    if not (0.0 < eps_target < 1.0):
        raise ValueError(f"eps_target {eps_target!r} outside (0, 1)")
    log_eps = math.log(eps_target)
    q = 0
    while log_wrong_magnitudes(q, eta)[1] > log_eps:
        q += 1
    return q


def _models(delta: float, eps: float) -> list[dict]:
    """Unit-constant asymptotic rows for one (delta, eps) cell."""
    ln_eps = math.log(1.0 / eps)
    lg_delta = math.log2(1.0 / delta)
    rows = [
        {"variant": "pea",
         "mu": math.log2(1.0 / (delta * eps * eps)),
         "q": None, "nu": None,
         "n_u": 1.0 / (delta * eps * eps),
         "n_a": math.log2(1.0 / (delta * eps * eps)),
         "n_p": 1.0},
        {"variant": "voting",
         "mu": lg_delta, "q": None, "nu": ln_eps,
         "n_u": ln_eps / delta,
         "n_a": ln_eps * lg_delta,
         "n_p": ln_eps},
        {"variant": "modified",
         "mu": lg_delta, "q": None, "nu": ln_eps,
         "n_u": ln_eps / delta,
         "n_a": lg_delta + ln_eps,
         "n_p": ln_eps},
        {"variant": "fixed_point",
         "mu": lg_delta, "q": None, "nu": None,
         "n_u": ln_eps * ln_eps / delta,
         "n_a": lg_delta,
         "n_p": ln_eps * ln_eps},
    ]
    return rows


def tabulate(delta_grid, eps_grid, measured=()) -> list[dict]:
    """Cost comparison over a (delta, eps) grid.

    Model columns carry the Theta formulas with unit constants; measured
    columns are filled from ``measured`` records (dicts with variant,
    delta, eps, and exact mu/q/nu/n_u/n_a/n_p from a real run) where
    present.  Rows come back in canonical order (variant, delta, eps).
    Every grid entry must be positive and finite, and delta * eps^2 must
    have a finite reciprocal in every cell (ValueError otherwise).
    """
    if not delta_grid or not eps_grid:
        raise ValueError("delta and eps grids must be nonempty")
    for name, grid in (("delta_grid", delta_grid), ("eps_grid", eps_grid)):
        for value in grid:
            if not 0.0 < float(value) < math.inf:
                raise ValueError(f"{name} entries must be positive and finite, got {value!r}")
    for delta in delta_grid:
        for eps in eps_grid:
            scale = float(delta) * float(eps) * float(eps)
            if scale == 0.0 or math.isinf(1.0 / scale):
                raise ValueError(f"delta * eps^2 = {scale!r} at delta={delta!r}, eps={eps!r} "
                                 "is out of a double's range")
    by_cell = {(m["variant"], float(m["delta"]), float(m["eps"])): m for m in measured}
    rows = []
    for delta in delta_grid:
        for eps in eps_grid:
            for model in _models(float(delta), float(eps)):
                got = by_cell.get((model["variant"], float(delta), float(eps)))
                rows.append({
                    "variant": model["variant"],
                    "delta": float(delta),
                    "eps": float(eps),
                    "mu": got["mu"] if got else model["mu"],
                    "q": got.get("q") if got else model["q"],
                    "nu": got.get("nu") if got else model["nu"],
                    "N_U_model": model["n_u"],
                    "N_U_measured": got["n_u"] if got else None,
                    "N_A": got["n_a"] if got else model["n_a"],
                    "N_P": got["n_p"] if got else model["n_p"],
                })
    rows.sort(key=lambda r: (_VARIANT_ORDER.index(r["variant"]), r["delta"], r["eps"]))
    return rows

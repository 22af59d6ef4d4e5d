"""Selective phase rotations and the pi/3 fixed-point recursion.

One recursion level wraps a unitary V into two three-fold products,

    compress(V) = V . I_sigma^{pi/3} . V+ . I_Z^{pi/3}  . V
    balance(W)  = W . I_sigma^{pi/3} . W+ . I_Z^{-pi/3} . W

(rightmost factor applied first).  compress cubes the wrong-subspace
amplitude exactly, for any V and any window; balance cubes the in-window
probability mass exactly, which is what tames the unmarked directions.
Both phase rotations act on the workspace only (the start state sigma and
the Z window), so the construction never needs to know the main-space
state: selective_phase(target, angle, main_dim) lifts each to
1_main (x) phase on every main row of the wrapped operator
(statevec.main_rows).  q levels cost 9^q applications of the wrapped
operator, and check_level admits q from 0 to the fixed cap Q_CAP = 3.

The sigma-phase reflects about a workspace start state, sigma = |0> by
default: a basis projector, the generic path and the oracle for any V.
The estimation operator is V = V_F . H with H the Walsh-Hadamard transform
on the workspace, an involution, so H I_sigma H = I_u for the uniform
state u = H|sigma>.  By induction on the level,
core_q(V) = core_q^u(V_F) . H, where core^u takes its sigma-phase about u;
the marker builds its core that way and leaves H out, and an evaluation
drives it on u, formed from its formula (see marker), so H never runs.
selective_phase picks its rotation at build by the kind of target, and a
constant state such as u keeps only its dimension.  The level-q error
law (log_wrong_magnitudes, for eta within ETA_REGIME) is read by
predict_schedule and complexity.plan_recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statevec import (
    LinearOperator,
    SubspaceProjector,
    compose,
    main_rows,
    real_dtype,
    require_int,
)

# pi/3 rounded once in long double, so a complex256 phase turns by pi/3 to
# a long-double ulp; complex128 rounds it on to the nearest double.
PI3 = np.arccos(np.longdouble(-1)) / 3
Q_CAP = 3  # deepest recursion level built: 9^3 = 729 applications
ETA_REGIME = 2.0 ** -5  # the largest eta at which the level-q error law holds


def selective_phase(target: np.ndarray | SubspaceProjector, angle: float | np.floating,
                    main_dim: int = 1) -> LinearOperator:
    """1_main (x) (1 - (1 - e^{i angle}) P) on dim = main_dim * work_dim,
    the amplitudes seen as (main_dim, work_dim) rows; with main_dim 1 it is
    a phase on the target's own space.  The target lives on the workspace,
    and its kind picks the rotation here, once: a basis-subspace projector
    P scales its columns; a constant unit state, such as the uniform one,
    keeps only its dimension, its projection a row sum over the workspace
    scaled in real_dtype; any other unit state t, P = |t><t|, is kept in
    at least complex128 (complex256 stays complex256) and has its
    projection subtracted from every row.  The angle is kept as given: a
    long-double angle keeps its precision."""
    main_dim = require_int(main_dim, "main_dim")
    if main_dim < 1:
        raise ValueError(f"main_dim {main_dim} must be positive")
    cache: dict = {}

    def factor(dtype, sign):
        key = (np.dtype(dtype), sign)
        if key not in cache:
            work = real_dtype(dtype).type(angle)
            cache[key] = np.asarray(np.exp(1j * sign * work), dtype=dtype)[()]
        return cache[key]

    if isinstance(target, SubspaceProjector):
        work_dim = target.dim
        # A masked multiply beats gathering the member columns by index.
        inside = target.mask()[:, None]

        def rotate(rows, phase):
            out = rows.copy()
            np.multiply(out, phase, out=out, where=inside)
            return out
    else:
        state = np.asarray(target)
        if state.ndim != 1:
            raise ValueError(f"state target must be a vector, got shape {state.shape}")
        nrm = np.linalg.norm(state)
        if abs(nrm - 1.0) > 1e-10:
            raise ValueError(f"state target norm {float(nrm)!r} deviates from 1")
        work_dim = state.shape[0]
        if np.all(state == state[0]):
            # A constant state t has |t><t| = J / work_dim whatever its
            # phase, so its projection is a row sum scaled by 1 / work_dim.
            def rotate(rows, phase):
                # Pairwise sums over a contiguous workspace axis (@ adds
                # in sequence) keep the row sums within a few ulps.
                along = np.ascontiguousarray(rows.transpose(0, 2, 1))
                part = (along.sum(axis=2) * ((phase - 1.0) / work_dim))[:, None, :]
                return rows + part
        else:
            state = state.astype(np.result_type(state, np.complex128), copy=False)

            def rotate(rows, phase):
                w = state.astype(rows.dtype)
                coeff = (w.conj() @ rows)[:, None, :]
                return rows + (phase - 1.0) * (w[:, None] * coeff)

    def make(sign):
        def run(x, _tally):
            rows = x.reshape(main_dim, work_dim, -1)
            return rotate(rows, factor(x.dtype, sign)).reshape(x.shape)
        return run

    return LinearOperator(main_dim * work_dim, make(+1), make(-1))


def _pi3_level(op: LinearOperator, zwindow: SubspaceProjector,
               start: np.ndarray | None, z_angle: float) -> LinearOperator:
    """V I_start^{pi/3} V+ I_Z^{z_angle} V, the shared form of both halves
    of a recursion level, with both phases on every main row of V.  start
    None is sigma = |0>, a basis projector; otherwise the sigma-phase
    reflects about the workspace state start."""
    main_dim = main_rows(op, zwindow.dim)
    if start is None:
        start = SubspaceProjector(zwindow.dim, (0,))
    return compose(op, selective_phase(start, PI3, main_dim), op.adjoint,
                   selective_phase(zwindow, z_angle, main_dim), op)


def pi3_compress(op: LinearOperator, zwindow: SubspaceProjector,
                 start: np.ndarray | None = None) -> LinearOperator:
    """V I_sigma^{pi/3} V+ I_Z^{pi/3} V; wrong-subspace amplitude -> cubed."""
    return _pi3_level(op, zwindow, start, PI3)


def pi3_balance(op: LinearOperator, zwindow: SubspaceProjector,
                start: np.ndarray | None = None) -> LinearOperator:
    """V I_sigma^{pi/3} V+ I_Z^{-pi/3} V; in-window probability mass -> cubed."""
    return _pi3_level(op, zwindow, start, -PI3)


def check_level(q: int) -> None:
    """Reject a recursion level that is not an integer (TypeError, see
    require_int) and a level outside [0, Q_CAP] (ValueError)."""
    q = require_int(q, "level q")
    if q < 0:
        raise ValueError("q must be nonnegative")
    if q > Q_CAP:
        raise ValueError(f"q={q} exceeds the level cap {Q_CAP}")


def build_fixed_point(pea_op: LinearOperator, q: int, zwindow: SubspaceProjector,
                      start: np.ndarray | None = None) -> LinearOperator:
    """Level-q recursion: q = 0 is the wrapped operator itself; each level
    is balance(compress(previous)), so the wrapped operator is applied
    exactly 9^q times per application of the result.  The sigma-phases
    reflect about the workspace state start (None: sigma = |0>)."""
    check_level(q)
    main_rows(pea_op, zwindow.dim)  # the window must tile the operator, at q = 0 too
    op = pea_op
    for _ in range(q):
        op = pi3_balance(pi3_compress(op, zwindow, start), zwindow, start)
    return op


@dataclass(frozen=True)
class RecursionSchedule:
    """Level bookkeeping: exponent m = 3^q and the amplitude growth factors
    g (marked side) and h (unmarked side), with the level error budget
    eps = (3^{3/4} / 32)^m evaluated at the working regime boundary."""

    q: int
    m: int
    g: float
    h: float
    eps: float

    @classmethod
    def closed_form(cls, q: int) -> "RecursionSchedule":
        if q < 0:
            raise ValueError("q must be nonnegative")
        m = 3 ** q
        g = 3.0 ** ((m - 1) / 4.0)
        h = 3.0 ** (3.0 * (m - 1) / 4.0)
        eps = math.exp(m * (0.75 * math.log(3.0) - math.log(32.0)))
        return cls(q=q, m=m, g=g, h=h, eps=eps)

    def successor(self) -> "RecursionSchedule":
        """One application of the recurrences m->3m, g->sqrt(3) g^3,
        h->3^{3/2} h^3, eps->eps^3."""
        return RecursionSchedule(
            q=self.q + 1,
            m=3 * self.m,
            g=math.sqrt(3.0) * self.g ** 3,
            h=3.0 ** 1.5 * self.h ** 3,
            eps=self.eps ** 3,
        )


@dataclass(frozen=True)
class SchedulePrediction:
    schedule: RecursionSchedule
    marked_magnitude: float
    unmarked_magnitude: float


def log_wrong_magnitudes(q: int, eta: float) -> tuple[float, float]:
    """log(g_q eta^m) and log(h_q eta^m), m = 3^q: the leading-order wrong
    magnitudes after level q, marked and unmarked, in log space to dodge
    under- and overflow.  The law holds for eta within ETA_REGIME."""
    m, log_eta, log3 = 3 ** q, math.log(eta), math.log(3.0)
    return ((m - 1) / 4.0 * log3 + m * log_eta,
            3.0 * (m - 1) / 4.0 * log3 + m * log_eta)


def predict_schedule(q: int, eta: float) -> SchedulePrediction:
    """Leading-order wrong magnitudes g_q eta^m (marked) and h_q eta^m
    (unmarked) after level q, from log_wrong_magnitudes.  eta beyond the
    ETA_REGIME = 2^-5 working regime still yields numbers; the caller
    compares eta with ETA_REGIME."""
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta {eta!r} outside (0, 1)")
    sched = RecursionSchedule.closed_form(q)
    marked, unmarked = (math.exp(v) for v in log_wrong_magnitudes(q, eta))
    return SchedulePrediction(schedule=sched, marked_magnitude=marked, unmarked_magnitude=unmarked)

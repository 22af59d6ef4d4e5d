"""Selective phase rotations and the pi/3 fixed-point recursion.

One recursion level wraps a unitary V into two three-fold products,

    compress(V) = V . I_sigma^{pi/3} . V+ . I_Z^{pi/3}  . V
    balance(W)  = W . I_sigma^{pi/3} . W+ . I_Z^{-pi/3} . W

(rightmost factor applied first).  compress cubes the wrong-subspace
amplitude exactly, for any V and any window; balance cubes the in-window
probability mass exactly, which is what tames the unmarked directions.
Both phase rotations act on the workspace only (the sigma basis state and
the Z window), so the construction never needs to know the main-space
state.  q levels cost 9^q applications of the wrapped operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statevec import (
    LinearOperator,
    SubspaceProjector,
    compose,
    embed_work_projector,
    real_dtype,
    work_basis_projector,
)
from .complexity import ETA_REGIME

PI3 = np.pi / 3.0
Q_CAP_DEFAULT = 3


@dataclass(frozen=True, eq=False)
class SelectivePhaseSpec:
    """Target (a unit state vector or a basis-subspace projector) and angle."""

    target: np.ndarray | SubspaceProjector
    angle: float

    def __post_init__(self) -> None:
        if isinstance(self.target, SubspaceProjector):
            return
        vec = np.asarray(self.target, dtype=complex)
        if vec.ndim != 1:
            raise ValueError(f"state target must be a vector, got shape {vec.shape}")
        nrm = float(np.linalg.norm(vec))
        if abs(nrm - 1.0) > 1e-10:
            raise ValueError(f"state target norm {nrm!r} deviates from 1")
        object.__setattr__(self, "target", vec)

    @property
    def dim(self) -> int:
        if isinstance(self.target, SubspaceProjector):
            return self.target.dim
        return self.target.shape[0]


def selective_phase(spec: SelectivePhaseSpec) -> LinearOperator:
    """1 - (1 - e^{i angle}) |target><target| (projector case: same formula)."""
    angle = float(spec.angle)
    cache: dict = {}

    def factor(dtype, sign):
        key = (np.dtype(dtype), sign)
        if key not in cache:
            work = real_dtype(dtype).type(angle)
            cache[key] = np.asarray(np.exp(1j * sign * work), dtype=dtype)[()]
        return cache[key]

    if isinstance(spec.target, SubspaceProjector):
        idx = np.asarray(spec.target.member_indices, dtype=int)

        def make(sign):
            def run(x, _tally):
                out = x.copy()
                out[idx] *= factor(x.dtype, sign)
                return out
            return run
    else:
        omega = spec.target

        def make(sign):
            def run(x, _tally):
                w = omega.astype(x.dtype)
                coeff = w.conj() @ x
                return x + (factor(x.dtype, sign) - 1.0) * np.outer(w, coeff)
            return run

    return LinearOperator(spec.dim, make(+1), make(-1))


def _check_joint(op: LinearOperator, main_dim: int, zwindow: SubspaceProjector) -> int:
    dim = main_dim * zwindow.dim
    if op.dim != dim:
        raise ValueError(
            f"operator dim {op.dim} != main_dim {main_dim} * work_dim {zwindow.dim}"
        )
    return dim


def _pi3_level(op: LinearOperator, main_dim: int, zwindow: SubspaceProjector,
               sigma_index: int, z_angle: float) -> LinearOperator:
    """V I_sigma^{pi/3} V+ I_Z^{z_angle} V, the shared form of both halves
    of a recursion level."""
    _check_joint(op, main_dim, zwindow)
    i_sigma = selective_phase(SelectivePhaseSpec(
        work_basis_projector(main_dim, zwindow.dim, sigma_index), PI3))
    i_z = selective_phase(SelectivePhaseSpec(
        embed_work_projector(main_dim, zwindow), z_angle))
    return compose(op, i_sigma, op.adjoint, i_z, op)


def pi3_compress(op: LinearOperator, main_dim: int, zwindow: SubspaceProjector,
                 sigma_index: int = 0) -> LinearOperator:
    """V I_sigma^{pi/3} V+ I_Z^{pi/3} V; wrong-subspace amplitude -> cubed."""
    return _pi3_level(op, main_dim, zwindow, sigma_index, PI3)


def pi3_balance(op: LinearOperator, main_dim: int, zwindow: SubspaceProjector,
                sigma_index: int = 0) -> LinearOperator:
    """V I_sigma^{pi/3} V+ I_Z^{-pi/3} V; in-window probability mass -> cubed."""
    return _pi3_level(op, main_dim, zwindow, sigma_index, -PI3)


def check_level(q: int, q_cap: int) -> None:
    """Reject a recursion level outside [0, q_cap]."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    if q > q_cap:
        raise ValueError(f"q={q} exceeds the configured cap {q_cap}")


def build_fixed_point(pea_op: LinearOperator, q: int, main_dim: int,
                      zwindow: SubspaceProjector, sigma_index: int = 0,
                      q_cap: int = Q_CAP_DEFAULT) -> LinearOperator:
    """Level-q recursion: q = 0 is the wrapped operator itself; each level
    is balance(compress(previous)), so the wrapped operator is applied
    exactly 9^q times per application of the result."""
    check_level(q, q_cap)
    _check_joint(pea_op, main_dim, zwindow)
    op = pea_op
    for _ in range(q):
        op = pi3_balance(pi3_compress(op, main_dim, zwindow, sigma_index),
                         main_dim, zwindow, sigma_index)
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
    eta: float
    marked_magnitude: float
    unmarked_magnitude: float
    in_regime: bool


def predict_schedule(q: int, eta: float) -> SchedulePrediction:
    """Leading-order wrong magnitudes g_q eta^m (marked) and h_q eta^m
    (unmarked) after level q, evaluated in log space to dodge under- and
    overflow.  eta beyond the 2^-5 working regime still yields numbers but
    is flagged."""
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta {eta!r} outside (0, 1)")
    sched = RecursionSchedule.closed_form(q)
    log_eta = math.log(eta)
    log3 = math.log(3.0)
    marked = math.exp((sched.m - 1) / 4.0 * log3 + sched.m * log_eta)
    unmarked = math.exp(3.0 * (sched.m - 1) / 4.0 * log3 + sched.m * log_eta)
    return SchedulePrediction(
        schedule=sched,
        eta=float(eta),
        marked_magnitude=marked,
        unmarked_magnitude=unmarked,
        in_regime=eta <= ETA_REGIME,
    )

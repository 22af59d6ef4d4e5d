"""Majority voting over parallel estimation registers.

The voting operator is the nu-fold tensor power of one estimation
operator.  For eigenstate inputs every register sees the same per-register
wrong probability p, so the amplitude that ends in the losing majority
subspace is a binomial tail; Hoeffding gives the e^{-nu/4} envelope at
p << 1/2.  Register counts are restricted to odd values so strict
majority never ties.

The tensor is T . H^(x nu) on the shifted eigenphases: each register's
V_F runs on a row view of the joint state, copying nothing.  The marker is
H^(x nu) . T+ I_maj T . H^(x nu), and like every variant's it is evaluated
without its ends: the marker module builds T from the registers' V_F
factors and drives T+ I_maj T on u = H^(x nu) sigma, the uniform state on
all nu registers, formed from its formula, so H never runs.
build_h_tensor, the whole tensor, is the construction the audit and the
tests check against.
"""

from __future__ import annotations

import math

import numpy as np

from .statevec import LinearOperator, SubspaceProjector, compose, require_int
from .pea import WorkspaceLayout, estimation_factors

TENSOR_GUARD = 2 ** 18


def require_odd(nu: int) -> int:
    """nu as an int, rejecting a non-integer (TypeError, see require_int)
    and an even or nonpositive register count (ValueError)."""
    nu = require_int(nu, "register count nu")
    if nu < 1 or nu % 2 == 0:
        raise ValueError(f"register count nu={nu} must be odd and positive")
    return nu


def check_joint_dim(main_dim: int, work_dim: int, nu: int) -> int:
    """Joint dimension main_dim * work_dim^nu of nu registers, rejecting one
    over the tensor guard.  work_dim^nu is at least 2^(nu floor(log2
    work_dim)), so a count over the guard's bits is rejected before the
    power, however large nu, is formed."""
    if nu * (work_dim.bit_length() - 1) < TENSOR_GUARD.bit_length():
        dim = main_dim * work_dim ** nu
        if dim <= TENSOR_GUARD:
            return dim
    raise ValueError(f"joint dimension {main_dim} * {work_dim}^{nu} exceeds tensor guard "
                     f"{TENSOR_GUARD}")


def majority_tail_amplitude(p: float, nu: int) -> float:
    """Amplitude of the identical-product state inside the losing-majority
    subspace: sqrt(P[X > nu/2]) for X ~ Binomial(nu, p).

    With m = nu//2 + 1 the tail is p^m S, S = sum_{k>=m} C(nu, k)
    p^(k-m) (1-p)^(nu-k), a sum of positive terms added exactly by fsum, so
    no 1 - cdf cancels and no term underflows ahead of the result.  The
    amplitude is sqrt(S) p^(m/2), multiplied in by two factors p^(m/4) so
    that it stays representable wherever the result is.  A nu whose
    binomial coefficients overflow a double, or a p outside [0, 1], is
    rejected with ValueError.
    """
    nu = require_odd(nu)
    p = float(p)
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"wrong probability p={p!r} outside [0, 1]")
    m = nu // 2 + 1
    try:
        tail = math.fsum(float(math.comb(nu, k)) * p ** (k - m) * (1.0 - p) ** (nu - k)
                         for k in range(m, nu + 1))
    except OverflowError:
        tail = math.inf
    if not math.isfinite(tail):
        raise ValueError(f"register count nu={nu} overflows the binomial tail in a double")
    quarter = p ** (m / 4.0)
    return math.sqrt(tail) * quarter * quarter


def hoeffding_amplitude_bound(nu: int) -> float:
    """e^{-nu/4}: the amplitude envelope at deviation t ~ 1/2, i.e. the
    square root of the e^{-2 nu t^2} probability bound."""
    nu = require_int(nu, "register count nu")
    if nu < 1:
        raise ValueError(f"nu={nu} must be positive")
    return math.exp(-nu / 4.0)


def majority_projector(zwindow: SubspaceProjector, nu: int) -> SubspaceProjector:
    """Projector on the nu-register workspace onto basis states with more
    than nu/2 registers inside the window (the winning subspace for a
    marked input); its complement is the strict-minority subspace."""
    nu = require_odd(nu)
    wdim = zwindow.dim
    dim = check_joint_dim(1, wdim, nu)
    in_window = zwindow.mask().astype(np.int64)
    counts = np.zeros((1,) * nu, dtype=np.int64)
    for r in range(nu):
        shape = [1] * nu
        shape[r] = wdim
        counts = counts + in_window.reshape(shape)
    return SubspaceProjector(dim, np.flatnonzero(counts.ravel() > nu // 2))


def build_h_tensor(lam, nu: int, layout: WorkspaceLayout) -> LinearOperator:
    """nu parallel estimation registers in the eigenframe of the shifted
    unitary, for the shifted eigenphases lam (one main index per phase):
    T . H^(x nu), with T the product of the registers' V_F factors (see
    pea.estimation_factors) and H^(x nu) the Walsh-Hadamard transform on
    all nu * mu register qubits.  Joint dimension main_dim * (2^mu)^nu is
    guarded.  Each application charges one V_F application per register;
    a caller with an eigenbasis turns the result once with in_frame.  The
    marker leaves H^(x nu) out (see marker); this is its oracle."""
    nu = require_odd(nu)
    check_joint_dim(len(lam), layout.work_dim, nu)
    return compose(*estimation_factors(lam, layout, nu))

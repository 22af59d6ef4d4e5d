"""Majority voting over parallel estimation registers.

The voting operator is the nu-fold tensor power of one estimation
operator.  For eigenstate inputs every register sees the same per-register
wrong probability p, so the amplitude that ends in the losing majority
subspace is a binomial tail; Hoeffding gives the e^{-nu/4} envelope at
p << 1/2.  Register counts are restricted to odd values so strict
majority never ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

from .statevec import LinearOperator, SubspaceProjector
from .pea import WorkspaceLayout

TENSOR_GUARD = 2 ** 18


def require_odd(nu: int) -> int:
    """nu as an int, rejecting even and nonpositive register counts."""
    nu = int(nu)
    if nu < 1 or nu % 2 == 0:
        raise ValueError(f"register count nu={nu} must be odd and positive")
    return nu


@dataclass(frozen=True)
class VotingModel:
    """nu registers, each wrong with probability p; t = 1/2 - p is the
    Hoeffding deviation."""

    nu: int
    p: float

    def __post_init__(self) -> None:
        require_odd(self.nu)
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"wrong probability p={self.p!r} outside [0, 1]")

    @property
    def t(self) -> float:
        return 0.5 - self.p


def majority_tail_amplitude(p: float, nu: int) -> float:
    """Amplitude of the identical-product state inside the losing-majority
    subspace: sqrt(P[X > nu/2]) for X ~ Binomial(nu, p)."""
    VotingModel(nu, p)
    return float(np.sqrt(binom.sf(nu // 2, nu, p)))


def hoeffding_amplitude_bound(nu: int) -> float:
    """e^{-nu/4}: the amplitude envelope at deviation t ~ 1/2, i.e. the
    square root of the e^{-2 nu t^2} probability bound."""
    nu = int(nu)
    if nu < 1:
        raise ValueError(f"nu={nu} must be positive")
    return math.exp(-nu / 4.0)


def majority_projector(zwindow: SubspaceProjector, nu: int) -> SubspaceProjector:
    """Projector on the nu-register workspace onto basis states with more
    than nu/2 registers inside the window (the winning subspace for a
    marked input); its complement is the strict-minority subspace."""
    nu = require_odd(nu)
    wdim = zwindow.dim
    if wdim ** nu > TENSOR_GUARD:
        raise ValueError(f"workspace dim {wdim}^{nu} exceeds tensor guard {TENSOR_GUARD}")
    in_window = zwindow.mask().astype(np.int64)
    counts = np.zeros((1,) * nu, dtype=np.int64)
    for r in range(nu):
        shape = [1] * nu
        shape[r] = wdim
        counts = counts + in_window.reshape(shape)
    members = np.nonzero(counts.ravel() > nu // 2)[0]
    return SubspaceProjector(wdim ** nu, tuple(int(i) for i in members))


def build_h_tensor(pea_op: LinearOperator, nu: int, layout: WorkspaceLayout,
                   main_dim: int) -> LinearOperator:
    """nu-fold parallel application of the estimation operator, one register
    per workspace factor.  Joint dimension main_dim * (2^mu)^nu is guarded;
    each application charges the wrapped operator nu times."""
    nu = require_odd(nu)
    wdim = layout.work_dim
    if pea_op.dim != main_dim * wdim:
        raise ValueError(f"estimation operator dim {pea_op.dim} != {main_dim} * {wdim}")
    dim = main_dim * wdim ** nu
    if dim > TENSOR_GUARD:
        raise ValueError(f"joint dimension {dim} exceeds tensor guard {TENSOR_GUARD}")

    def run(x, tally, adjoint):
        shape = (main_dim,) + (wdim,) * nu + (x.shape[1],)
        a = x.reshape(shape)
        for r in range(1, nu + 1):
            b = np.moveaxis(a, r, 1)
            flat = b.reshape(main_dim * wdim, -1)
            if adjoint:
                flat = pea_op.adjoint_apply_to(flat, tally)
            else:
                flat = pea_op.apply_to(flat, tally)
            a = np.moveaxis(flat.reshape(b.shape), 1, r)
        return a.reshape(dim, x.shape[1])

    return LinearOperator(
        dim,
        lambda x, tally: run(x, tally, adjoint=False),
        lambda x, tally: run(x, tally, adjoint=True),
    )

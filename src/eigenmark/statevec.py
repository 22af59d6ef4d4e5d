"""Complex state vectors on a main (x) workspace tensor product, plus
matrix-free unitary operators with per-application resource counting.

Conventions fixed here and relied on by every other module:

- joint amplitudes are indexed (main index i, workspace index z) and
  flattened in C order, so flat = i * work_dim + z;
- the workspace index z is little-endian over ancilla qubits; only the
  integer index ever matters because all workspace transforms are defined
  directly on z;
- resource counters live in an explicit Tally passed through applications,
  never in globals, so parallel evaluations keep independent books;
- arrays passed to operators may be complex128 or complex256; operators
  must preserve the dtype they are given (extended precision is used when
  measuring amplitudes near the double-precision noise floor).  Tables and
  angles an operator builds for a dtype are computed in real_dtype(dtype),
  so complex256 means longdouble arithmetic throughout.

All values are immutable after construction and safe to share across
threads; a Tally is single-owner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

DENSE_GUARD = 4096
NORM_TOL = 1e-10
# Widest complex type of this platform; complex128 where there is no complex256.
EXTENDED = np.complex256 if hasattr(np, "complex256") else np.complex128

CostTags = tuple[tuple[str, int], ...]


def real_dtype(dtype) -> np.dtype:
    """Real type in which operator tables for a complex dtype are computed:
    float64 for complex128, longdouble for complex256."""
    return np.finfo(dtype).dtype


class Tally:
    """Mutable resource counter for one evaluation context."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def charge(self, tags) -> None:
        for name, n in tags:
            self.counts[name] = self.counts.get(name, 0) + n

    def get(self, name: str) -> int:
        return self.counts.get(name, 0)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"Tally({inner})"


class LinearOperator:
    """Matrix-free unitary on a dim-dimensional complex space.

    ``apply_fn`` and ``adjoint_fn`` receive a (dim, batch) array plus the
    active Tally (possibly None) and return a (dim, batch) array of the
    same dtype.  ``cost`` lists (resource, count) pairs charged once per
    application, batched or not; composite operators carry no cost of
    their own and let their factors charge through the shared Tally.
    ``eigensystem`` optionally carries (phases, basis) when the operator is
    known to be diagonal in some unitary basis (basis None means
    computational).
    """

    __slots__ = ("dim", "_apply", "_adjoint", "cost", "eigensystem")

    def __init__(
        self,
        dim: int,
        apply_fn: Callable,
        adjoint_fn: Callable,
        cost: CostTags = (),
        eigensystem=None,
    ) -> None:
        self.dim = int(dim)
        self._apply = apply_fn
        self._adjoint = adjoint_fn
        self.cost = tuple(cost)
        self.eigensystem = eigensystem

    def apply_to(self, vec: np.ndarray, tally: Tally | None = None) -> np.ndarray:
        return self._run(self._apply, vec, tally)

    def adjoint_apply_to(self, vec: np.ndarray, tally: Tally | None = None) -> np.ndarray:
        return self._run(self._adjoint, vec, tally)

    def _run(self, fn: Callable, vec: np.ndarray, tally: Tally | None) -> np.ndarray:
        x = np.asarray(vec)
        if x.shape[0] != self.dim:
            raise ValueError(f"operator of dim {self.dim} applied to vector of dim {x.shape[0]}")
        if tally is not None:
            tally.charge(self.cost)
        if x.ndim == 1:
            return fn(x[:, None], tally)[:, 0]
        return fn(x, tally)

    @property
    def adjoint(self) -> "LinearOperator":
        eig = self.eigensystem
        if eig is not None:
            phases, basis = eig
            eig = (tuple(-p for p in phases), basis)
        return LinearOperator(self.dim, self._adjoint, self._apply, self.cost, eig)

    def __repr__(self) -> str:
        return f"LinearOperator(dim={self.dim}, cost={self.cost})"


def compose(*ops: LinearOperator) -> LinearOperator:
    """Operator product: compose(A, B)(x) = A(B(x)), rightmost applied first."""
    if not ops:
        raise ValueError("compose needs at least one operator")
    dim = ops[0].dim
    for op in ops:
        if op.dim != dim:
            raise ValueError(f"composition mixes dims {dim} and {op.dim}")

    def apply_fn(x, tally):
        for op in reversed(ops):
            x = op.apply_to(x, tally)
        return x

    def adjoint_fn(x, tally):
        for op in ops:
            x = op.adjoint_apply_to(x, tally)
        return x

    return LinearOperator(dim, apply_fn, adjoint_fn)


def identity(dim: int) -> LinearOperator:
    return LinearOperator(dim, lambda x, _t: x, lambda x, _t: x,
                          eigensystem=((0.0,) * dim, None))


def from_matrix(matrix: np.ndarray, cost: CostTags = ()) -> LinearOperator:
    """Wrap a dense unitary matrix as a matrix-free operator."""
    m = np.array(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    cache: dict = {}

    def _cast(dtype, adj: bool):
        key = (np.dtype(dtype), adj)
        if key not in cache:
            cache[key] = (m.conj().T if adj else m).astype(dtype)
        return cache[key]

    return LinearOperator(
        m.shape[0],
        lambda x, _t: _cast(x.dtype, False) @ x,
        lambda x, _t: _cast(x.dtype, True) @ x,
        cost,
    )


@dataclass(frozen=True, eq=False)
class SubspaceProjector:
    """Projector onto a set of computational basis directions."""

    dim: int
    member_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(sorted(set(int(i) for i in self.member_indices)))
        object.__setattr__(self, "member_indices", idx)
        if self.dim < 1:
            raise ValueError("projector dimension must be positive")
        if idx and (idx[0] < 0 or idx[-1] >= self.dim):
            raise ValueError(f"member indices {idx[0]}..{idx[-1]} outside [0, {self.dim})")

    @property
    def rank(self) -> int:
        return len(self.member_indices)

    def mask(self) -> np.ndarray:
        m = np.zeros(self.dim, dtype=bool)
        if self.member_indices:
            m[list(self.member_indices)] = True
        return m

    def complement(self) -> "SubspaceProjector":
        members = set(self.member_indices)
        return SubspaceProjector(self.dim, tuple(i for i in range(self.dim) if i not in members))


def embed_work_projector(main_dim: int, proj: SubspaceProjector) -> SubspaceProjector:
    """Lift a workspace projector to the joint space (identity on main)."""
    w = proj.dim
    idx = np.asarray(proj.member_indices, dtype=int)
    joint = (np.arange(main_dim)[:, None] * w + idx[None, :]).ravel()
    return SubspaceProjector(main_dim * w, tuple(int(i) for i in joint))


def work_basis_projector(main_dim: int, work_dim: int, index: int) -> SubspaceProjector:
    """Joint projector onto (anything on main) x |index> on the workspace."""
    return embed_work_projector(main_dim, SubspaceProjector(work_dim, (index,)))


@dataclass(frozen=True, eq=False)
class JointState:
    """Unit vector on main (x) workspace, amplitudes indexed (i, z)."""

    main_dim: int
    work_dim: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.main_dim < 1 or self.work_dim < 1:
            raise ValueError("dimensions must be positive")
        if self.work_dim & (self.work_dim - 1):
            raise ValueError(f"work_dim {self.work_dim} is not a power of two")
        amps = np.array(self.amplitudes, copy=True)
        if amps.shape != (self.main_dim * self.work_dim,):
            raise ValueError(
                f"amplitude length {amps.shape} != main_dim*work_dim = "
                f"{self.main_dim * self.work_dim}"
            )
        nrm = float(np.linalg.norm(amps))
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {nrm!r} deviates from 1 by more than {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def tensor(self) -> np.ndarray:
        """(main_dim, work_dim) view of the amplitudes."""
        return self.amplitudes.reshape(self.main_dim, self.work_dim)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def product_state(main: np.ndarray, work: np.ndarray) -> JointState:
    main = np.asarray(main)
    work = np.asarray(work)
    return JointState(main.shape[0], work.shape[0], np.outer(main, work).ravel())


def apply(op: LinearOperator, state: JointState, side: str = "joint",
          tally: Tally | None = None) -> JointState:
    """Apply op to one tensor factor (or the whole joint space) of state."""
    if side == "joint":
        want = state.main_dim * state.work_dim
        if op.dim != want:
            raise ValueError(f"joint-side op dim {op.dim} != joint dim {want}")
        out = op.apply_to(state.amplitudes, tally)
    elif side == "main":
        if op.dim != state.main_dim:
            raise ValueError(f"main-side op dim {op.dim} != main dim {state.main_dim}")
        out = op.apply_to(state.tensor(), tally).ravel()
    elif side == "work":
        if op.dim != state.work_dim:
            raise ValueError(f"work-side op dim {op.dim} != work dim {state.work_dim}")
        cols = np.ascontiguousarray(state.tensor().T)
        out = np.ascontiguousarray(op.apply_to(cols, tally).T).ravel()
    else:
        raise ValueError(f"unknown side {side!r}; expected main|work|joint")
    return JointState(state.main_dim, state.work_dim, out)


class SubspaceComponent(NamedTuple):
    magnitude: float
    projected: np.ndarray
    degenerate: bool


def subspace_amplitude(state: JointState, proj: SubspaceProjector,
                       side: str = "work") -> SubspaceComponent:
    """Magnitude of the component of state inside proj, plus the raw
    (unnormalized) projected amplitudes."""
    t = state.tensor()
    if side == "work":
        if proj.dim != state.work_dim:
            raise ValueError(f"projector dim {proj.dim} != work dim {state.work_dim}")
        keep = proj.mask()[None, :]
    elif side == "main":
        if proj.dim != state.main_dim:
            raise ValueError(f"projector dim {proj.dim} != main dim {state.main_dim}")
        keep = proj.mask()[:, None]
    else:
        raise ValueError(f"unknown side {side!r}; expected main|work")
    projected = np.where(keep, t, 0.0).ravel()
    magnitude = float(np.linalg.norm(projected))
    return SubspaceComponent(magnitude, projected, proj.rank == 0)


def dense_materialize(op: LinearOperator) -> np.ndarray:
    """Column j is op applied to basis state j; the brute-force oracle."""
    if op.dim > DENSE_GUARD:
        raise ValueError(f"dense materialization of dim {op.dim} exceeds guard {DENSE_GUARD}")
    return op.apply_to(np.eye(op.dim, dtype=complex))

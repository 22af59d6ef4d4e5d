"""Matrix-free unitary operators on a main (x) workspace tensor product,
with per-application resource counting, and apply, the one driver that
puts main-space vectors (x) sigma through a joint operator.  States are
plain numpy arrays; there is no state type.

Conventions fixed here and relied on by every other module:

- joint amplitudes are indexed (main index i, workspace index z) and
  flattened in C order, so flat = i * work_dim + z, and a joint output
  reads as a (main_dim, work_dim) array; a joint operator's
  main_rows(op, work_dim) is read from it, never passed alongside it;
- a workspace phase acts as 1_main (x) phase, lifted by fpqs.selective_phase;
- the workspace index z is little-endian over ancilla qubits; only the
  integer index ever matters because all workspace transforms are defined
  directly on z; the workspace start state sigma is |0>, z = 0;
- operators built from phases act in the eigenframe of the main space;
  in_frame is the one place that turns them by an eigenbasis;
- resource counters live in an explicit Tally passed through applications,
  never in globals, so parallel evaluations keep independent books;
- arrays passed to operators may be complex128 or complex256, and a real
  array is made complex on entry (long double to complex256, any other to
  complex128); operators must preserve the dtype they are given
  (extended precision is used when measuring amplitudes near the
  double-precision noise floor).  Tables and angles an operator builds
  for a dtype are computed in real_dtype(dtype), so complex256 means
  longdouble arithmetic throughout.

Operators are safe to share across threads.  Their state is fixed at
construction except for per-dtype caches that fill on first use: the
estimation operator's phase mask (pea.estimation_factors) is built once,
under a lock the operator owns, since it is a W-point table; the
selective phase's scalar factor and from_matrix's cast matrix are filled
without one, as two threads that race compute the same value and one
store wins; pea._sylvester is a functools.cache.  A Tally is
single-owner: apply gives each concurrent application its own.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

DENSE_GUARD = 4096
# Widest complex type of this platform; complex128 where there is no complex256.
EXTENDED = np.complex256 if hasattr(np, "complex256") else np.complex128

CostTags = tuple[tuple[str, int], ...]


def real_dtype(dtype) -> np.dtype:
    """Real type in which operator tables for a complex dtype are computed:
    float64 for complex128, longdouble for complex256."""
    return np.finfo(dtype).dtype


def require_int(value, name: str) -> int:
    """value as an int when it is a Python or numpy integer.  A bool or a
    float, integral or not, is a TypeError: a count is never truncated or
    read from a flag."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def main_rows(op: LinearOperator, work_dim: int) -> int:
    """Main-space row count op.dim // work_dim of an operator on
    main (x) workspace (flat = i * work_dim + z); ValueError when the
    workspace dimension does not divide op.dim."""
    rows, rest = divmod(op.dim, work_dim)
    if rest or rows < 1:
        raise ValueError(f"operator dim {op.dim} is not a whole multiple of "
                         f"work dim {work_dim}")
    return rows


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
        if x.dtype.kind != "c":
            # Operators compute in the dtype they are given, so a real
            # input would lose its phases; a complex one passes untouched.
            x = x.astype(np.result_type(x, np.complex128))
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

    def mask(self) -> np.ndarray:
        m = np.zeros(self.dim, dtype=bool)
        if self.member_indices:
            m[list(self.member_indices)] = True
        return m

    def complement(self) -> "SubspaceProjector":
        members = set(self.member_indices)
        return SubspaceProjector(self.dim, tuple(i for i in range(self.dim) if i not in members))


def in_frame(op: LinearOperator, basis: np.ndarray | None, work_dim: int) -> LinearOperator:
    """(E x 1_work) . op . (E+ x 1_work) for the main-space eigenbasis E:
    op given in the eigenframe, seen in the computational frame.  This is
    the only code that multiplies by an eigenbasis; basis None returns op
    itself.  op charges the Tally; an op diagonal in the eigenframe keeps
    its phases, now with basis E."""
    if basis is None:
        return op
    main_dim = basis.shape[0]
    if op.dim != main_dim * work_dim:
        raise ValueError(f"operator dim {op.dim} != {main_dim} * work dim {work_dim}")

    def turn(e, x):
        return (e.astype(x.dtype) @ x.reshape(main_dim, -1)).reshape(x.shape)

    def apply_fn(x, tally):
        return turn(basis, op.apply_to(turn(basis.conj().T, x), tally))

    def adjoint_fn(x, tally):
        return turn(basis, op.adjoint_apply_to(turn(basis.conj().T, x), tally))

    eig = None if op.eigensystem is None else (op.eigensystem[0], basis)
    return LinearOperator(op.dim, apply_fn, adjoint_fn, eigensystem=eig)


def apply(ops: LinearOperator | Sequence[LinearOperator], mains, work_dim: int,
          tally: Tally | None = None) -> list[np.ndarray]:
    """Each main-space vector in mains, tensored with sigma, through its
    operator: ops is one operator for every vector or a sequence of them,
    one per vector (ValueError naming both counts otherwise).  One
    application, and one charge to tally, per vector; each output is a
    (main_dim, work_dim) array, in input order.  ValueError when work_dim
    does not tile an operator's dim (see main_rows).

    Extended-precision inputs (real_dtype itemsize above 8 bytes) run
    concurrently, largest operator first, on a thread pool made for this
    call with one worker per usable core, at most one per vector.  Each
    application charges a Tally of its own, merged into tally in input
    order, so outputs and books equal a serial loop's.  If applications
    raise, the exception of the first failing vector in input order
    propagates once all have ended, with tally charged as the serial loop
    would have left it.  No thread outlives the call, so a process forked
    later (sweep --jobs) inherits none.  The gate: an extended
    application's time is long-double FFTs, which numpy runs outside the
    GIL, while threading complex128 applications made sweep slower and
    raised voting's peak memory, so those run in the calling thread."""
    mains = list(mains)
    if isinstance(ops, LinearOperator):
        ops = [ops] * len(mains)
    elif len(ops) != len(mains):
        raise ValueError(f"{len(ops)} operators for {len(mains)} main vectors")
    for op in ops:
        main_rows(op, work_dim)
    sigma = np.zeros(work_dim)
    sigma[0] = 1.0

    def run(i, books):
        return ops[i].apply_to(np.outer(mains[i], sigma).ravel(), books).reshape(-1, work_dim)

    extended = any(real_dtype(np.result_type(np.asarray(main), sigma)).itemsize > 8
                   for main in mains)
    workers = min(_cores(), len(mains)) if extended else 1
    if workers <= 1:
        return [run(i, tally) for i in range(len(mains))]
    books = [Tally() for _ in mains]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {i: pool.submit(run, i, books[i])
                   for i in sorted(range(len(mains)), key=lambda i: -ops[i].dim)}
    outs = []
    for i, own in enumerate(books):
        if tally is not None:
            tally.charge(own.counts.items())
        outs.append(futures[i].result())
    return outs


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def dense_materialize(op: LinearOperator) -> np.ndarray:
    """Column j is op applied to basis state j; the brute-force oracle."""
    if op.dim > DENSE_GUARD:
        raise ValueError(f"dense materialization of dim {op.dim} exceeds guard {DENSE_GUARD}")
    return op.apply_to(np.eye(op.dim, dtype=complex))

"""Matrix-free unitary operators on a main (x) workspace tensor product,
with per-application resource counting, and apply, the one driver that
puts main-space vectors (x) a workspace start state through a joint
operator.  States are plain numpy arrays; there is no state type.

Conventions fixed here and relied on by every other module:

- joint amplitudes are indexed (main index i, workspace index z) and
  flattened in C order, so flat = i * work_dim + z, and a joint output
  reads as a (main_dim, work_dim) array; a joint operator's
  main_rows(op, work_dim) is read from it, never passed alongside it;
- a workspace phase acts as 1_main (x) phase, lifted by fpqs.selective_phase;
- the workspace index z is little-endian over ancilla qubits; only the
  integer index ever matters because all workspace transforms are defined
  directly on z; the workspace start state sigma is |0>, z = 0, and a
  marker evaluated without its Walsh-Hadamard ends starts on u = H sigma;
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

Projectors (SubspaceProjector) are read-only boolean masks of length
dim, built once from member indices and shared as they are by every
operator and caller that reads them.

Operators are safe to share across threads.  Their state is fixed at
construction except for two per-dtype caches that fill on first use:
the estimation tables (pea.estimation_factors), under a lock the
operator owns, and the selective phase's scalar factors, without one,
as racing threads compute the same value.  A Tally is single-owner:
apply gives each concurrent application its own.
"""

from __future__ import annotations

import ctypes
import os
import platform
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

DENSE_GUARD = 4096
# Freed heap memory glibc keeps for reuse instead of returning it to the
# kernel (see _keep_freed_memory).
HEAP_KEEP_BYTES = 32 * 2 ** 20
# Fewest amplitudes per application (op.dim) at which apply runs
# complex128 applications on threads; see apply for the crossover.
THREAD_MIN_DIM = 2 ** 15
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
        """The adjoint, with the same cost and no eigensystem."""
        return LinearOperator(self.dim, self._adjoint, self._apply, self.cost)

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
    return LinearOperator(dim, lambda x, _t: x, lambda x, _t: x)


def from_matrix(matrix: np.ndarray, cost: CostTags = ()) -> LinearOperator:
    """Wrap a dense unitary matrix as a matrix-free operator."""
    m = np.array(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return LinearOperator(
        m.shape[0],
        lambda x, _t: m.astype(x.dtype) @ x,
        lambda x, _t: m.conj().T.astype(x.dtype) @ x,
        cost,
    )


class SubspaceProjector:
    """Projector onto a set of computational basis directions, kept as a
    read-only boolean mask of length dim: SubspaceProjector(dim, indices)
    marks the given indices (any order, repeats allowed) and rejects one
    outside [0, dim) with ValueError, and floats or bools, as require_int
    would one index, with TypeError; an empty sequence marks nothing."""

    __slots__ = ("dim", "_mask")

    def __init__(self, dim: int, indices) -> None:
        self.dim = require_int(dim, "projector dimension")
        if self.dim < 1:
            raise ValueError("projector dimension must be positive")
        idx = np.asarray(indices).ravel()
        if idx.size and idx.dtype.kind not in "iu":
            raise TypeError(f"member indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.dim):
            raise ValueError(f"member indices {idx.min()}..{idx.max()} outside [0, {self.dim})")
        mask = np.zeros(self.dim, dtype=bool)
        mask[idx] = True
        mask.flags.writeable = False
        self._mask = mask

    def mask(self) -> np.ndarray:
        """The stored read-only mask: True on member directions."""
        return self._mask

    def complement(self) -> "SubspaceProjector":
        return SubspaceProjector(self.dim, np.flatnonzero(~self._mask))


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


def apply(ops: LinearOperator | Sequence[LinearOperator], mains, start: np.ndarray,
          tally: Tally | None = None) -> list[np.ndarray]:
    """Each main-space vector in mains, tensored with the workspace state
    start (sigma = |0> for the physical operators, the uniform state for
    a marker without its Walsh-Hadamard ends), through its operator: ops
    is one operator for every vector or a sequence of them, one per vector
    (ValueError naming both counts otherwise).  One application, and one
    charge to tally, per vector; each output is a (main_dim, work_dim)
    array, work_dim = len(start), in input order.  ValueError when
    work_dim does not tile an operator's dim (see main_rows).

    Applications run concurrently, largest operator first, on a thread
    pool made for this call with one worker per usable core (see
    share_cores), at most one per vector, when the inputs are extended
    precision (real_dtype itemsize above 8 bytes) or every operator has at
    least THREAD_MIN_DIM = 2^15 amplitudes; otherwise they run in the
    calling thread.  Each application charges a Tally of its own, merged
    into tally in input order, so outputs and books equal a serial loop's.
    If applications raise, the exception of the first failing vector in
    input order propagates once all have ended, with tally charged as the
    serial loop would have left it.  No thread outlives the call, so a
    process forked later (sweep --jobs) inherits none; apply returns only
    once its workers have left the kernel too (see _await_exit).

    The gate: numpy runs an application's FFTs and most of its array
    loops outside the GIL, so threads pay off once an application
    outweighs the pool's cost.  Long-double marker levels, whose time is
    long-double FFTs, do at every size.  pea.measure_eta's single
    estimation-operator applications (an FFT and the Walsh-Hadamard
    butterflies each) gain only when large: on 2 complex256 directions
    (median of 10 calls, 3 rounds, 2-core host) mu=14 took 21.2-21.6 ms
    serial against 12.5-15.9 ms threaded, but mu=11 2.4-3.3 ms against
    2.7-4.0 ms, so the gate threads mu=11 at a loss.  For complex128,
    THREAD_MIN_DIM is the smallest power of two at which threaded
    evaluate_marker calls of every variant won most of 12 alternating
    rounds against serial with BLAS on one thread (OPENBLAS_NUM_THREADS=1,
    as the benchmark runs; 2 directions and 2 probes, median of 5 calls,
    2-core host; an evaluation makes no BLAS call).  At 2^15 threads won 7
    rounds for pea (7.7 -> 8.2 ms: the median got slower, so the gate may
    thread it for no gain), 8 for voting at mu=5, nu=3 (10.1 ms both) and
    11 for fixed_point q=1 (68 -> 48 ms); at 2^16 9 and 11, at 2^17 all.
    With OpenBLAS at its default thread count threads won fewer rounds
    below 2^17.  A mu=9 sweep's applications (512 and 1,024 amplitudes)
    stay serial."""
    mains = list(mains)
    if isinstance(ops, LinearOperator):
        ops = [ops] * len(mains)
    elif len(ops) != len(mains):
        raise ValueError(f"{len(ops)} operators for {len(mains)} main vectors")
    start = np.asarray(start)
    work_dim = start.shape[0]
    for op in ops:
        main_rows(op, work_dim)

    def run(i, books):
        return ops[i].apply_to(np.outer(mains[i], start).ravel(), books).reshape(-1, work_dim)

    threaded = (any(real_dtype(np.result_type(np.asarray(main), start)).itemsize > 8
                    for main in mains)
                or all(op.dim >= THREAD_MIN_DIM for op in ops))
    workers = min(_cores(), len(mains)) if threaded else 1
    if workers <= 1:
        return [run(i, tally) for i in range(len(mains))]
    books = [Tally() for _ in mains]
    tids: set[int] = set()

    def work(i, books):
        tids.add(threading.get_native_id())
        return run(i, books)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {i: pool.submit(work, i, books[i])
                   for i in sorted(range(len(mains)), key=lambda i: -ops[i].dim)}
    _await_exit(tids)
    outs = []
    for i, own in enumerate(books):
        if tally is not None:
            tally.charge(own.counts.items())
        outs.append(futures[i].result())
    return outs


_sharing = 1  # processes that run side by side on this one's cores


def share_cores(processes: int) -> None:
    """Keep every later apply call in this process to max(1, cores //
    processes) threads: the initializer of each of sweep --jobs' worker
    processes, so that the workers, running side by side, together run
    no more threads than there are cores."""
    global _sharing
    processes = require_int(processes, "processes")
    if processes < 1:
        raise ValueError(f"processes must be positive, got {processes}")
    _sharing = processes


def _cores() -> int:
    """Threads an apply call may run: the cores this process may run on,
    shared among the processes named by share_cores, at least one."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cores = os.cpu_count() or 1
    return max(1, cores // _sharing)


def _await_exit(tids) -> None:
    """Return once the threads with native ids tids have ended in the
    kernel, where /proc/self/task lists them; elsewhere at once.

    A Python thread counts as joined before its OS thread has run glibc's
    exit path, which is where it hands its malloc arena back for the next
    thread to take.  A quarter of apply calls (voting, 2 workers) found a
    worker still there after the join; when the next call's workers
    started first they were given new arenas, each of which kept its own
    freed memory (see _keep_freed_memory), so voting's peak RSS wandered
    from 57 to 74 MB between runs.  Waiting, under 0.3 ms a call, keeps
    it to one arena per worker."""
    if not os.path.isdir("/proc/self/task"):
        return
    for tid in tids:
        while os.path.exists(f"/proc/self/task/{tid}"):
            os.sched_yield()


def _keep_freed_memory() -> None:
    """Fix glibc's mmap and trim thresholds for this process at
    HEAP_KEEP_BYTES, the ceiling of glibc's own dynamic mmap threshold,
    so that freed memory up to that much stays in the heap.

    By default glibc hands a freed block back to the kernel once the free
    space at the top of its heap passes twice the largest block it has
    mapped, here about 2 MB, and an application's megabyte transients
    (voting's batches and their FFT and register copies) crossed that on every
    call.  Each application then faulted its pages in afresh, and with
    threads every release interrupted the other core to flush its TLB: a
    voting pass (mu=5, nu=3, 8 tasks, 2-core host) took 36k page faults
    and 0.18-0.21 s threaded, 0.30 s serial.  With the thresholds fixed
    it takes under 100 faults and 0.12-0.15 s.  Serial applications
    gain too: a serial voting pass still took 18.7k faults at 8 MB, one
    from 16 MB up.  Other C libraries are left as they are."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's malloc.h
    mallopt(m_mmap_threshold, HEAP_KEEP_BYTES)
    mallopt(m_trim_threshold, HEAP_KEEP_BYTES)


_keep_freed_memory()


def dense_materialize(op: LinearOperator) -> np.ndarray:
    """Column j is op applied to basis state j; the brute-force oracle."""
    if op.dim > DENSE_GUARD:
        raise ValueError(f"dense materialization of dim {op.dim} exceeds guard {DENSE_GUARD}")
    return op.apply_to(np.eye(op.dim, dtype=complex))

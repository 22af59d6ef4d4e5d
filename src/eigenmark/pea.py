"""Phase estimation on an ancilla workspace: operator construction, the
window subspace, per-eigenphase error measurement, and empirical
calibration of the workspace size.

The estimation operator on a mu-qubit workspace is V = V_F . H: H is the
Walsh-Hadamard transform and V_F = inverse-QFT . controlled-powers.
estimation_factors builds V_F, walsh_hadamard builds H, and build_pea
composes the two.  No W x W matrix is ever formed (W = 2^mu): V_F is an
FFT and H is mu radix-2 butterfly stages, both O(W log W) and both in the
amplitudes' own real dtype.
V_F carries the whole cost: each application charges the U counter with
exactly 2^mu and the P counter with 1 (adjoint applications charge the
same), and H charges nothing.  Since H acts on the workspace only and is
an involution, every variant's marker is H . inner . H, with inner built
from V_F alone: the fixed-point recursion runs on V_F (see fpqs), and so do
voting's registers.  On sigma the transform gives the uniform state
u = H sigma, which marker.uniform_state forms from its formula, so a marker
evaluation runs no H at all; H runs in measure_eta and in the oracles
(voting.build_h_tensor, marker.MarkerAssembly.frame).

Calibration finds worst-case eigenphases from the closed-form response: the
in-window mass is a sum of the Fejér kernel (sin(W x/2) / (W sin(x/2)))^2
over the window, which on a bin-aligned grid is a box sum over the rows of
a table of the kernel, one prefix-sum subtraction per grid phase; the table
covers only the rows the boxes touch.  A window search keeps one store of
table rows (_FejerRows) for all its scans, so each row is computed once per
search.  The exact kernel refines the three best maxima together by
parabolic steps with Brent's golden-section safeguard, one call per step
over all three, and an envelope bound limits how far the unmarked sweep
must reach.  The kernel (_mass_terms, the one home of the Dirichlet ratio)
gives one term per phase and window offset; it reduces the offsets mod W
once per (mu, window), so no term pays a modulo and only phases whose bins
reach W/2 wrap; both it and the table compute in place on one buffer.
The grid has a fixed GRID_PER_BIN points per bin: the costs depend on
the gap and the target alone, so its density is not part of the problem.
_eta_floor samples the exact kernel where each worst case lives, a few
points at each band end, and gives a lower bound on a mu's best eta^2
together with the window where the samples cross.  It computes each
sample's term at each offset once, into a table that grows as its gallop
reaches wider windows, and sums each window's columns.  best_window gallops
from that window to the one where the two computed worst cases cross and
keeps the better of the pair at the crossing; calibrate_workspace searches
no mu whose floor already misses the target.
measure_eta drives the actual operator and is the cross-check for both.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, asdict

import numpy as np

from .statevec import (LinearOperator, SubspaceProjector, apply, check_amplitude_dtype,
                       compose, in_frame, main_rows, phase_tables, real_dtype, require_int)
from .spectral import SpectralUnitary, MarkTarget, check_target, wrap_angle

ETA_TARGET_DEFAULT = 2.0 ** -5
VERIFICATION_DIM = 2  # eigendirections of verification_model: one marked, one not
_TWO_PI_HI = float.fromhex("0x1.921fb54p+2")  # 2 pi to 29 significant bits
# window_response_mass is exact only while k * _TWO_PI_HI is, i.e. for bins
# |k| <= 2^24; a phase in [-pi, pi] lies in a bin |k| <= 2^(mu-1).
MU_MAX = 25
GRID_PER_BIN = 64  # box-sum grid points per bin in the worst-case search
_GOLDEN = (3 - 5 ** 0.5) / 2  # the golden-section fraction of a bracket
# Mass by which _eta_floor must exceed eta_target^2 to rule a mu out: its
# samples agree with the scans' own values to about 1e-12.
FLOOR_SLACK = 1e-10


@dataclass(frozen=True)
class WorkspaceLayout:
    """Ancilla register geometry: mu qubits and the symmetric window.

    Z = {z : min(z, 2^mu - z) <= window} flags "estimated phase near zero";
    its complement is Z-perp.  The standard state sigma is |0...0>.
    """

    mu: int
    window: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", require_int(self.mu, "mu"))
        object.__setattr__(self, "window", require_int(self.window, "window"))
        if self.mu < 1:
            raise ValueError(f"mu {self.mu} must be at least 1")
        if self.mu > MU_MAX:
            raise ValueError(f"mu {self.mu} exceeds MU_MAX = {MU_MAX}")
        # window < 2^(mu-1), compared without forming the power.
        if not (0 <= self.window and self.window.bit_length() < self.mu):
            raise ValueError(f"window {self.window} outside [0, 2^(mu-1)) for mu={self.mu}")

    @property
    def work_dim(self) -> int:
        return 2 ** self.mu

    def window_indices(self) -> np.ndarray:
        w, dim = self.window, self.work_dim
        if w == 0:
            return np.array([0])
        return np.concatenate([np.arange(0, w + 1), np.arange(dim - w, dim)])

    def z_window(self) -> SubspaceProjector:
        return SubspaceProjector(self.work_dim, self.window_indices())

    def sigma_state(self, dtype=np.complex128) -> np.ndarray:
        v = np.zeros(self.work_dim, dtype=dtype)
        v[0] = 1.0
        return v


def _fwht_axis1(a: np.ndarray) -> np.ndarray:
    """Normalized Walsh-Hadamard transform along axis 1 of (m, W, k), as a
    new array: log2 W radix-2 butterflies (x, y) -> (x + y, x - y) in place
    on the real view of one copy, then one scaling by 1/sqrt(W) in its real
    dtype (long double for complex256), one path for every dtype.

    Each of the m rows transforms on its own.  A row whose entries are all
    +0.0 maps to itself bit for bit, so it skips the butterflies; a row
    holding a -0.0 does not (-0.0 - -0.0 is +0.0).  measure_eta's unit
    directions leave every main row but one zero."""
    out = np.array(a, order="C")
    flat = out.view(real_dtype(a.dtype))
    m, wdim, width = flat.shape
    rows = flat.reshape(m, wdim * width)
    live = rows.any(axis=1)
    if not live.all():
        live[~live] = np.signbit(rows[~live]).any(axis=1)
    work = flat if live.all() else flat[live]
    for bit in range(wdim.bit_length() - 1):
        pairs = work.reshape(len(work), wdim >> (bit + 1), 2, width << bit)
        x, y = pairs[:, :, 0], pairs[:, :, 1]
        diff = x - y
        x += y
        y[...] = diff
    work *= 1 / np.sqrt(work.dtype.type(wdim))
    if work is not flat:
        flat[live] = work
    return out


def walsh_hadamard(dim: int, work_dim: int) -> LinearOperator:
    """H on the work_dim amplitudes of each main row of a dim-dimensional
    joint space (flat = i * work_dim + z): the normalized Walsh-Hadamard
    transform, real, orthogonal and its own inverse, charging nothing.  On
    nu registers of W amplitudes work_dim = W^nu, since H on nu * mu
    qubits is H_W^(x nu).  ValueError when work_dim is not a power of two
    or does not tile dim."""
    if work_dim < 1 or work_dim & (work_dim - 1):
        raise ValueError(f"work dim {work_dim} is not a power of two")

    def transform(x, _tally):
        return _fwht_axis1(x.reshape(-1, work_dim, x.shape[1])).reshape(x.shape)

    op = LinearOperator(dim, transform, transform)
    main_rows(op, work_dim)
    return op


def estimation_factors(lam, layout: WorkspaceLayout,
                       registers: int = 1) -> tuple[LinearOperator, ...]:
    """The V_F factors of the estimation operator V = V_F . H in the
    eigenframe of the shifted unitary, for the shifted eigenphases lam (one
    main index per phase): (V_F,), or with registers = nu (V_F on register
    1, ..., V_F on register nu).  H is walsh_hadamard, which the callers
    that apply it compose themselves.

    V_F is the z-controlled power of the shifted operator followed by the
    inverse QFT on the workspace; it charges 2^mu on the U counter (the
    stated accounting convention, even though a ladder of controlled
    squarings could be tallied as 2^mu - 1) and 1 on the P counter per
    application.  The controlled powers are phases in the eigenframe, so
    the eigenphases are all the factors need (the mask e^{i lam_i z}, a
    phase_tables one).  Register r acts on the row view
    (main_dim * W^(r-1), W, rest) of the joint state, its mask broadcast
    over the earlier registers, so nothing is copied.
    """
    lam = np.asarray(lam, dtype=float)
    main_dim = lam.shape[0]
    wdim = layout.work_dim
    dim = main_dim * wdim ** registers
    tables = phase_tables(lambda real: lam.astype(real)[:, None, None, None]
                          * np.arange(wdim, dtype=real)[:, None])

    def v_f(before):
        # norm="ortho" scales by 1/sqrt(W) in the array's own real dtype.
        def apply_fn(x, _tally):
            mask, _conj = tables(x.dtype)
            a = x.reshape(main_dim, before, wdim, -1) * mask
            return np.fft.fft(a, axis=2, norm="ortho", out=a).reshape(x.shape)

        def adjoint_fn(x, _tally):
            _mask, conj = tables(x.dtype)
            a = np.fft.ifft(x.reshape(main_dim, before, wdim, -1), axis=2, norm="ortho")
            a *= conj
            return a.reshape(x.shape)

        return LinearOperator(dim, apply_fn, adjoint_fn, cost=(("U", wdim), ("P", 1)))

    return tuple(v_f(wdim ** r) for r in range(registers))


def build_pea(shifted: LinearOperator, layout: WorkspaceLayout) -> LinearOperator:
    """Joint-space estimation operator for the shifted unitary, V = V_F . H
    (estimation_factors' V_F after walsh_hadamard), turned by the
    eigenbasis once around the whole application.  Cost per application:
    2^mu on the U counter and 1 on the P counter.

    The shifted operator must carry its eigensystem (as build_shifted's
    does); an operator without one is rejected with ValueError.
    """
    if shifted.eigensystem is None:
        raise ValueError("build_pea needs an operator that carries its eigensystem")
    phases, basis = shifted.eigensystem
    v_f, = estimation_factors(phases, layout)
    return in_frame(compose(v_f, walsh_hadamard(v_f.dim, layout.work_dim)), basis,
                    layout.work_dim)


@dataclass(frozen=True)
class EtaEntry:
    index: int
    lam: float
    marked: bool
    eta: float


@dataclass(frozen=True)
class EtaReport:
    """Per-eigendirection wrong-subspace magnitudes after one application."""

    entries: tuple[EtaEntry, ...]
    eta_marked: float
    eta_unmarked: float

    @property
    def eta(self) -> float:
        return max(self.eta_marked, self.eta_unmarked)


def measure_eta(pea_op: LinearOperator, spec: SpectralUnitary, target: MarkTarget,
                layout: WorkspaceLayout, dtype=np.complex128) -> EtaReport:
    """Drive a joint core on every eigendirection (x) sigma and report the
    magnitude left in the wrong window (Z-perp for marked, Z for unmarked).

    pea_op may be any core on the joint space of dimension
    spec.dim * 2^mu whose marked subspace is the layout's window: the
    estimation operator itself, or a fixed-point level built on it.
    target must be spec's own (spectral.check_target) and dtype one of
    statevec.AMPLITUDE_DTYPES; ValueError otherwise, before any application.
    """
    check_target(spec, target)
    check_amplitude_dtype(dtype)
    if pea_op.dim != spec.dim * layout.work_dim:
        raise ValueError(f"operator dim {pea_op.dim} != {spec.dim} * {layout.work_dim}")
    window_mask = layout.z_window().mask()
    columns = [spec.basis_column(i).astype(dtype) for i in range(spec.dim)]
    entries = []
    # sigma in float64: each joint input takes its column's dtype, and
    # sigma itself stays W doubles whatever that dtype is.
    for i, out in enumerate(apply(pea_op, columns, layout.sigma_state(np.float64))):
        marked = i in target.marked_indices
        wrong = ~window_mask if marked else window_mask
        eta_i = float(np.linalg.norm(out[:, wrong]))
        entries.append(EtaEntry(i, target.lambdas[i], marked, eta_i))
    eta_m = max((e.eta for e in entries if e.marked), default=0.0)
    eta_u = max((e.eta for e in entries if not e.marked), default=0.0)
    return EtaReport(tuple(entries), eta_m, eta_u)


# ---------------------------------------------------------------------------
# Closed-form workspace response and worst-case search.

@functools.lru_cache(maxsize=128)  # bounded: an exhaustive scan probes every window
def _window_offsets(mu: int, window: int) -> np.ndarray:
    """-z mod W in [-W/2, W/2) for the window elements z, in window_indices
    order, as a read-only float array (its entries lie in [-window, window])."""
    wdim = 2 ** mu
    zs = WorkspaceLayout(mu, window).window_indices()
    offsets = ((wdim // 2 - zs) % wdim - wdim // 2).astype(float)
    offsets.flags.writeable = False
    return offsets


def window_response_mass(lam, mu: int, window: int) -> np.ndarray:
    """Probability mass the estimation operator leaves inside the window for
    an eigendirection with shifted phase lam (a scalar or 1-D array).

    The workspace amplitude at z is the Dirichlet ratio
    sin(W u/2) / (W sin(u/2)) with u = lam - 2 pi z / W, so the in-window
    mass is an O(window) sum per phase.  ValueError unless every lam lies
    in a bin |k| <= 2^24, k = round(lam W / 2 pi), where the kernel is
    exact (see MU_MAX); that rejects NaN and infinities too.
    """
    layout = WorkspaceLayout(mu, window)
    lam = np.asarray(lam, dtype=float)
    if lam.ndim > 1:
        raise ValueError(f"lam must be a scalar or 1-D, got shape {lam.shape}")
    return _mass_terms(np.atleast_1d(lam), layout.mu,
                       _window_offsets(layout.mu, layout.window)).sum(axis=1)


def _mass_terms(lam: np.ndarray, mu: int, offsets: np.ndarray) -> np.ndarray:
    """The squared Dirichlet ratios window_response_mass sums: one row per
    phase of the 1-D float array lam, one column per offset -z mod W in
    offsets (floats in [-W/2, W/2), as _window_offsets gives them).  Each
    term depends on its phase and offset alone, so any set of columns
    holds the same floats a window's row holds.  ValueError for a phase
    outside bins |k| <= 2^24."""
    wdim = 2 ** mu
    # r = lam - k beta to the nearest bin k, exact up to its own rounding as
    # k * _TWO_PI_HI is exact (k < 2^24).  Element z lies d = k - z (mod W,
    # in [-W/2, W/2)) bins on: u = r + d beta and sin(W u/2) = +-sin(W r/2).
    with np.errstate(over="ignore"):  # an overflowing bin is rejected here
        k = np.round(lam * (wdim / (2 * np.pi)))
    beyond = ~(np.abs(k) <= 2 ** 24)
    if beyond.any():
        raise ValueError(f"lam {float(lam[beyond][0])!r} is outside bins |k| <= 2^24 at "
                         f"mu={mu}, where the kernel is exact")
    r = (lam - k * (_TWO_PI_HI / wdim)) - k * ((2 * np.pi - _TWO_PI_HI) / wdim)
    k_mod = ((k.astype(np.int64) + wdim // 2) % wdim - wdim // 2).astype(float)
    half = np.add(k_mod[:, None], offsets)  # d, then u/2
    wraps = np.abs(k_mod) + np.abs(offsets).max(initial=0.0) >= wdim // 2
    if wraps.any():
        d = half[wraps]
        d[d >= wdim // 2] -= wdim
        d[d < -(wdim // 2)] += wdim
        half[wraps] = d
    # u/2 = d (pi/W) + r/2 is exactly half of r + d beta: halving commutes
    # with rounding.  sin, the W scale, the divide and the square run in
    # place on the one buffer.
    half *= np.pi / wdim
    half += 0.5 * r[:, None]
    np.sin(half, out=half)
    half *= wdim
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(np.sin((0.5 * wdim) * r)[:, None], half, out=half)
    np.multiply(half, half, out=half)
    # u == 0 exactly when d == 0 and r == 0: there, and only there, the
    # ratio is 0/0 and takes its limit 1.
    exact = r == 0.0
    if exact.any():
        rows = half[exact]
        rows[np.isnan(rows)] = 1.0
        half[exact] = rows
    return half


def _response_envelope(lam: float, mu: int, window: int) -> float:
    """Upper bound on window_response_mass for every phase at least as far
    from the window as lam (distances measured per window element)."""
    wdim = 2 ** mu
    zs = WorkspaceLayout(mu, window).window_indices()
    theta = wrap_angle((2 * np.pi / wdim) * zs)
    d = np.empty_like(theta)
    pos = theta >= 0
    d[pos] = np.maximum(lam - theta[pos], 1e-300)
    d[~pos] = np.minimum(lam - theta[~pos], np.pi + theta[~pos])
    d = np.maximum(np.abs(d), 2 * np.pi / wdim * 1e-6)
    return float((1.0 / (wdim * np.sin(d / 2.0)) ** 2).sum())


def _grid_span(mu: int, lo: float, hi: float):
    """(step, n0, n1): the box-sum grid phases strictly inside (lo, hi) are
    n * step for n in n0..n1, with step = beta / GRID_PER_BIN."""
    step = 2 * np.pi / (2 ** mu * GRID_PER_BIN)
    return step, int(np.floor(lo / step)) + 1, int(np.ceil(hi / step)) - 1


def _fejer_rows(mu: int, first: int, stop: int) -> np.ndarray:
    """Rows first..stop-1 (none when stop <= first) of _box_grid's table
    F[r, c] = (sin(pi c/G) / (W sin((r + c/G) pi/W)))^2, each row r
    computed at r mod W in [-W/2, W/2), where its values repeat."""
    wdim, g = 2 ** mu, GRID_PER_BIN
    rows = (np.arange(first, stop) + wdim // 2) % wdim - wdim // 2
    cols = np.arange(g) / g
    table = np.empty((len(rows), g))
    np.add(rows[:, None], cols, out=table)
    table *= np.pi / wdim
    np.sin(table, out=table)
    table *= wdim
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(np.sin(np.pi * cols), table, out=table)
    np.multiply(table, table, out=table)
    table[rows == 0, 0] = 1.0
    return table


class _FejerRows:
    """One mu's rows of _box_grid's table, each computed once.  A window
    search keeps one store for the scans of all its windows, in both
    bands.  It holds rows lo..hi - 1 as chunks: a request computes the
    rows it needs below lo or from hi on as new chunks, so no row is
    computed twice and none is moved.  The row ranges of scans near one
    crossing overlap, so the store holds the rows they touch; it goes
    with the search."""

    def __init__(self, mu: int):
        self.mu, self.lo, self.hi, self.chunks = mu, None, None, []

    def copy_into(self, out: np.ndarray, first: int) -> None:
        """Rows first..first + len(out) - 1 into out."""
        stop = first + len(out)
        if self.lo is None:
            self.lo = self.hi = first
        for start, end in ((first, self.lo), (self.hi, stop)):
            if start < end:
                self.chunks.append((start, _fejer_rows(self.mu, start, end)))
        self.lo, self.hi = min(self.lo, first), max(self.hi, stop)
        for start, chunk in self.chunks:
            lo, hi = max(first, start), min(stop, start + len(chunk))
            if lo < hi:
                out[lo - first:hi - first] = chunk[lo - start:hi - start]


def _box_grid(mu: int, window: int, lo: float, hi: float, rows: _FejerRows | None = None):
    """Grid phases (a + c/G) beta strictly inside (lo, hi), with
    beta = 2 pi / W and G = GRID_PER_BIN, and their in-window masses.

    Window element k sees (a, c) at offset (a - k + c/G) beta, so the mass
    there is the box sum over rows a-w..a+w of
    F[r, c] = (sin(pi c/G) / (W sin((r + c/G) pi/W)))^2, whose rows repeat
    mod W.  Prefix sums over the rows the boxes touch give each box in one
    subtraction.  The rows are copied into the prefix buffer from rows, a
    search's store at this mu (a fresh one when None), so sharing a store
    changes no value.
    """
    g = GRID_PER_BIN
    step, n0, n1 = _grid_span(mu, lo, hi)
    a0, span = n0 // g, max(0, n1 // g - n0 // g + 1)
    prefix = np.zeros((span + 2 * window + 1, g))
    (rows or _FejerRows(mu)).copy_into(prefix[1:], a0 - window)
    np.cumsum(prefix[1:], axis=0, out=prefix[1:])
    inside = (prefix[2 * window + 1:] - prefix[:span]).ravel()[n0 - a0 * g:n1 - a0 * g + 1]
    return np.arange(n0, n1 + 1) * step, inside


def _sup_scan(mu: int, window: int, lo: float, hi: float, outside: bool = False,
              rows: _FejerRows | None = None):
    """(lam, mass) with the largest in-window mass (out-of-window mass when
    outside) over [lo, hi], at the best point the exact kernel evaluated.

    The three best points of the box-sum grid are the candidates (the
    midpoint when no grid point lies inside).  One kernel call evaluates
    lo, hi and each candidate's bracket (c - h, c, c + h) clipped to
    [lo, hi], h = beta / GRID_PER_BIN, a point two brackets share once.
    Each of four steps then evaluates one new point per candidate, all in
    one call: the vertex of the parabola through the bracket's three
    points when it is a maximum strictly inside the bracket and not one of
    them, else, as in Brent's minimizer, a golden-section step from the
    best point into the larger of its sub-brackets.  The bracket keeps its
    best point and a neighbour either side, so it only shrinks, and the
    result never falls below the exact mass at lo, hi or any candidate.
    """
    xs, inside = _box_grid(mu, window, lo, hi, rows)
    sign = -1.0 if outside else 1.0
    centres = xs[np.argsort(sign * inside)[::-1][:3]] if len(xs) else np.array([(lo + hi) / 2])
    h = 2 * np.pi / (2 ** mu * GRID_PER_BIN)
    x = np.stack((np.maximum(lo, centres - h), centres, np.minimum(hi, centres + h)), axis=1)
    points, where = np.unique(np.concatenate(([lo, hi], x.ravel())), return_inverse=True)
    first = (sign * window_response_mass(points, mu, window))[where]
    v = first[2:].reshape(x.shape)
    rows = np.arange(len(x))
    for _ in range(4):
        # The vertex of the parabola through (a, b, c) from its divided
        # differences, and the golden-section point that stands in for it.
        (a, b, c), (fa, fb, fc) = x.T, v.T
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (fb - fa) / (b - a)
            curve = ((fc - fb) / (c - b) - slope) / (c - a)
            vertex = (a + b) / 2 - slope / (2 * curve)
        best = np.argmax(v, axis=1)
        p = x[rows, best]
        left, right = x[rows, np.maximum(best - 1, 0)], x[rows, np.minimum(best + 1, 2)]
        golden = p + _GOLDEN * (np.where(p - left > right - p, left, right) - p)
        step = np.where((curve < 0) & (a < vertex) & (vertex < c) & (vertex != b), vertex, golden)
        x = np.concatenate((x, step[:, None]), axis=1)
        v = np.concatenate((v, sign * window_response_mass(step, mu, window)[:, None]), axis=1)
        # Of the four points in order, keep the best and a neighbour either
        # side, or its two inner neighbours when it is outermost.
        order = np.argsort(x, axis=1, kind="stable")
        x, v = np.take_along_axis(x, order, 1), np.take_along_axis(v, order, 1)
        keep = np.clip(np.argmax(v, axis=1), 1, 2)[:, None] + [-1, 0, 1]
        x, v = np.take_along_axis(x, keep, 1), np.take_along_axis(v, keep, 1)
    xs, vs = np.concatenate(([lo, hi], x.ravel())), np.concatenate((first[:2], v.ravel()))
    lam, mass = float(xs[np.argmax(vs)]), float(vs.max())
    return lam, 1.0 + mass if outside else mass


def _covered_edge(mu: int, window: int, delta: float) -> tuple[float, float] | None:
    """(edge, 1.0) when the window edge, phase 2 pi window / 2^mu, reaches
    delta/2: that grid point is a legal unmarked phase with in-window mass
    1, the unmarked worst case.  None when the edge stays below delta/2."""
    edge = 2 * np.pi / 2 ** mu * window
    return (edge, 1.0) if edge >= delta / 2.0 else None


def worst_unmarked_mass(mu: int, window: int, delta: float, rows: _FejerRows | None = None):
    """(worst lam, in-window mass) over circle distance >= delta/2.

    Sweeps an adaptive region past theta_min densely and stops once the
    envelope bound proves nothing beyond the region can exceed the maximum
    already found.  rows is the box-table store of a search at this mu
    (see _box_grid), a fresh one per scan when None.
    """
    if covered := _covered_edge(mu, window, delta):
        return covered
    bin_width = 2 * np.pi / 2 ** mu
    lo = delta / 2.0
    region = 64.0
    while True:
        hi = min(np.pi, lo + region * bin_width)
        lam, mass = _sup_scan(mu, window, lo, hi, rows=rows)
        if hi >= np.pi or _response_envelope(hi, mu, window) < mass:
            return lam, mass
        region *= 2.0


@dataclass(frozen=True)
class WindowChoice:
    window: int
    eta_marked: float
    eta_unmarked: float
    lam_marked: float
    lam_unmarked: float

    @property
    def eta(self) -> float:
        return max(self.eta_marked, self.eta_unmarked)


def _crossing_window(crossed, wmax: int, start: int) -> int:
    """First window w in [0, wmax] with crossed(w), for a crossed that is
    false below one window and true from it on, or wmax when none has
    crossed.  A galloping bracket finds it: from start (clamped to
    [0, wmax]) it probes start + 1, 2, 4, ... while the window has not
    crossed, or start - 1, 2, 4, ... while it has, and bisects the
    bracket.  Galloping keeps every probed window near start: windows far
    above the crossing are large and expensive to sum over."""
    start = min(max(start, 0), wmax)
    lo = hi = start
    step = 1
    if crossed(start):
        while lo > 0:
            probe = max(0, start - step)
            if not crossed(probe):
                lo = probe + 1
                break
            lo = hi = probe
            step *= 2
    else:
        while not crossed(hi) and hi < wmax:
            lo, hi = hi + 1, min(wmax, start + step)
            step *= 2
    return lo + bisect.bisect_left(range(lo, hi), True, key=crossed)


def best_window(mu: int, delta: float, b: float) -> WindowChoice:
    """Window minimizing the worst-case eta at a given mu.

    The out-of-window (marked) mass falls and the in-window (unmarked)
    mass rises monotonically with the window, so "crossed" (marked eta at
    most unmarked eta) is false below one window and true from it on, and
    the optimum sits at that crossing.  The search starts where
    _eta_floor's samples cross, next to it: 2 probed windows at
    (11, 3.0, 0.05), where a start at window 0 probes 19.  The answer is
    the better of the first crossed window and the one below it, both
    probed by then: above the crossing eta is at least the (rising)
    unmarked eta, below it at least the (falling) marked eta.
    """
    mu = WorkspaceLayout(mu, 0).mu
    check_search(delta, b)
    return _search_from(mu, delta, b, _eta_floor(mu, delta, b)[1])


def _search_from(mu: int, delta: float, b: float, start: int) -> WindowChoice:
    """best_window's search, its crossing search started at start.  Each
    window's worst case depends on the window alone, so start sets which
    windows are probed, never the result.  Every scan reads its box-table
    rows from one store for this mu, which goes when the search returns."""
    rows = _FejerRows(mu)

    @functools.cache
    def choice(w: int) -> WindowChoice:
        # The marked band |lam| <= b*delta: the response is symmetric under
        # lam -> -lam for the symmetric window, so only lam >= 0 is swept.
        lam_m, mass_m = _sup_scan(mu, w, 0.0, b * delta, outside=True, rows=rows)
        lam_u, mass_u = worst_unmarked_mass(mu, w, delta, rows)
        return WindowChoice(w, float(np.sqrt(max(mass_m, 0.0))),
                            float(np.sqrt(max(mass_u, 0.0))), lam_m, lam_u)

    def crossed(w: int) -> bool:
        return choice(w).eta_marked <= choice(w).eta_unmarked

    lo = _crossing_window(crossed, 2 ** (mu - 1) - 1, start)
    return min((choice(w) for w in range(max(0, lo - 1), lo + 1)), key=lambda c: c.eta)


def _eta_floor(mu: int, delta: float, b: float) -> tuple[float, int]:
    """(floor, window): floor is a lower bound on
    best_window(mu, delta, b).eta ** 2 from a few exact-kernel samples per
    window, and window is where the sampled worst cases cross, the start
    that puts best_window next to its own crossing.

    Each side is sampled where its worst case lives.  The marked side takes
    b*delta and 16 of the scan's grid points within one bin below it, and
    their largest out-of-window mass; the unmarked side takes delta/2 and
    16 grid points within one bin above it, and their largest in-window
    mass, or 1.0 once the window edge reaches delta/2 (_covered_edge).
    Every sample is a point the scans evaluate, an endpoint exactly or a
    grid point whose box sum is the kernel's to 1e-12.  A scan evaluates
    its ends and its best grid points exactly, and its parabolic steps can
    only raise its result, so a window's sampled masses lie below its
    computed worst cases.  Those are monotone in the window, so for any
    split s, min(out(s - 1), in(s)) bounds eta ** 2 at every window: below
    s by the marked mass at s - 1, from s on by the unmarked mass at s.
    The split is the sampled crossing, where the bound is tightest; its
    search starts at the window whose edge sits at phase delta/3, near
    where the worst cases cross on the pinned configurations (0.34-0.36
    delta).

    The samples are fixed, so each (sample, offset) term is computed once
    per call: a table of the terms at offsets -reach..reach grows to each
    wider window the gallop probes, and a window's masses sum its columns
    in window_response_mass's order, to the same floats.
    """
    stride = GRID_PER_BIN // 16
    _, _, top = _grid_span(mu, 0.0, b * delta)
    step, bottom, _ = _grid_span(mu, delta / 2.0, np.pi)
    marked = np.arange(top, top - GRID_PER_BIN, -stride) * step
    unmarked = np.arange(bottom, bottom + GRID_PER_BIN, stride) * step
    marked = np.concatenate(([b * delta], marked[marked > 0.0]))
    unmarked = np.concatenate(([delta / 2.0], unmarked[unmarked < np.pi]))
    samples = np.concatenate((marked, unmarked))
    # The samples' terms at offsets -reach..reach, offset d in column
    # reach + d, each computed as the gallop first reaches its offset.
    terms, reach = np.empty((len(samples), 0)), -1

    @functools.cache
    def masses(w: int) -> tuple[float, float]:
        nonlocal terms, reach
        if w > reach:
            new = np.arange(-w, w + 1.0)
            grown = _mass_terms(samples, mu, new[np.abs(new) > reach])
            terms = np.concatenate((grown[:, :w - reach], terms, grown[:, w - reach:]), axis=1)
            reach = w
        # np.take copies the columns C-ordered, in window_response_mass's
        # order, so the row sums pair up its floats as it does.
        columns = (reach + _window_offsets(mu, w)).astype(int)
        mass = np.take(terms, columns, axis=1).sum(axis=1)
        covered = _covered_edge(mu, w, delta)
        inside = covered[1] if covered else float(mass[len(marked):].max())
        return 1.0 - float(mass[:len(marked)].min()), inside

    window = _crossing_window(lambda w: masses(w)[0] <= masses(w)[1], 2 ** (mu - 1) - 1,
                              round(2 ** mu * delta / (6 * np.pi)))
    below = masses(window - 1)[0] if window > 0 else np.inf
    return min(below, masses(window)[1]), window


@dataclass(frozen=True)
class CalibrationResult:
    delta: float
    b: float
    eta_target: float
    mu: int
    window: int
    eta_marked: float
    eta_unmarked: float
    lam_marked: float
    lam_unmarked: float
    converged: bool

    @property
    def eta(self) -> float:
        return max(self.eta_marked, self.eta_unmarked)

    def layout(self) -> WorkspaceLayout:
        return WorkspaceLayout(self.mu, self.window)


def check_search(delta: float, b: float) -> None:
    """Reject a worst-case search outside its domain: delta in (0, pi]
    and b in (0, 0.25]."""
    if not (0.0 < delta <= np.pi):
        raise ValueError(f"delta {delta!r} outside (0, pi]")
    if not (0.0 < b <= 0.25):
        raise ValueError(f"b {b!r} outside (0, 0.25]")


def calibrate_workspace(delta: float, b: float, eta_target: float = ETA_TARGET_DEFAULT,
                        mu_cap: int = 20) -> CalibrationResult:
    """Smallest mu (with its window) whose worst-case eta meets the target.

    Worst cases are taken over |lam| <= b*delta for the marked side and
    circle distance >= delta/2 for the unmarked side.  Each mu from 1 up
    is searched as best_window searches it, from _eta_floor's window,
    unless its floor exceeds eta_target ** 2 by more than FLOOR_SLACK,
    which rules the mu out without a search.  When no mu up to
    min(mu_cap, MU_MAX) reaches the target, the ruled-out mu are searched
    too, each from the floor window already computed, and the result
    carries converged=False and the best (mu, window) found, the smallest
    mu on a tie.  The result is the one a full search
    at every mu gives.  Every call searches cold and the search is
    deterministic, so the result is a function of the arguments alone.
    """
    mu_cap = require_int(mu_cap, "mu_cap")
    check_search(delta, b)
    if not (0.0 < eta_target <= 1.0):
        raise ValueError(f"eta_target {eta_target!r} outside (0, 1]")
    if mu_cap < 1:
        raise ValueError(f"mu_cap {mu_cap!r} must be at least 1")

    def result(mu: int, choice: WindowChoice) -> CalibrationResult:
        return CalibrationResult(delta=delta, b=b, eta_target=eta_target, mu=mu,
                                 converged=choice.eta <= eta_target, **asdict(choice))

    choices, ruled_out = {}, {}
    for mu in range(1, min(mu_cap, MU_MAX) + 1):
        floor, window = _eta_floor(mu, delta, b)
        if floor - FLOOR_SLACK > eta_target ** 2:
            ruled_out[mu] = window
            continue
        choices[mu] = _search_from(mu, delta, b, window)
        if choices[mu].eta <= eta_target:
            return result(mu, choices[mu])
    for mu, window in ruled_out.items():
        choices[mu] = _search_from(mu, delta, b, window)
    best = min(sorted(choices), key=lambda mu: choices[mu].eta)
    return result(best, choices[best])


def verification_model(delta: float, b: float, lam_marked: float, lam_unmarked: float,
                       phi: float = np.pi) -> tuple[SpectralUnitary, MarkTarget]:
    """Two-direction spectral model whose shifted phases sit exactly at the
    supplied worst-case offsets (relative to estimate 0).

    The model's declared gap is the actual separation of the two phases (a
    hair under it), and its accuracy fraction is rescaled so the marked
    phase still sits inside the estimate window.  Since the marked offset
    stays within b*delta and the unmarked offset at least delta/2 away,
    a calibration performed at (delta, b) applies verbatim.
    """
    lam_marked = float(lam_marked)
    lam_unmarked = float(lam_unmarked)
    if not abs(lam_marked) <= b * delta:
        raise ValueError(f"marked offset {lam_marked!r} outside the estimate window {b * delta!r}")
    if not delta / 2.0 <= abs(lam_unmarked) <= np.pi:
        raise ValueError(f"unmarked offset {lam_unmarked!r} closer than delta/2 = {delta / 2.0!r}")
    gap = float(wrap_angle(abs(lam_unmarked - lam_marked)))
    gap = abs(gap) * (1.0 - 1e-9)
    b_model = 1.25 * max(abs(lam_marked), 1e-6 * gap) / gap
    if b_model > 0.25:
        raise ValueError(
            f"offsets too close for a valid model: would need accuracy fraction {b_model!r} > 0.25"
        )
    b_model = max(b_model, 0.05)
    spec = SpectralUnitary(dim=VERIFICATION_DIM, eigenphases=(lam_marked, lam_unmarked),
                           delta=gap)
    target = MarkTarget.resolve(spec, psi_prime=0.0, phi=phi, b=b_model, marked_index=0)
    return spec, target


def scaling_constant(mu_values, delta: float, b: float) -> tuple[float, list[dict]]:
    """eta * sqrt(2^mu * delta) over a mu sweep at per-mu optimal windows
    (best_window), eta from the closed form.  Returns (largest constant
    observed, per-mu records)."""
    choices = [(mu, best_window(mu, delta, b)) for mu in mu_values]
    records = [{"mu": mu, "window": c.window, "eta": c.eta,
                "constant": c.eta * np.sqrt(2 ** mu * delta)} for mu, c in choices]
    return max((r["constant"] for r in records), default=0.0), records

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
covers only the rows the boxes touch.  The exact kernel refines the three
best maxima together, one call per refinement step over all their sub-grids
with each shared point evaluated once, and an envelope bound limits how far
the unmarked sweep must reach.  The kernel reduces the window offsets mod W
once per (mu, window), so no term pays a modulo and only phases whose bins
reach W/2 wrap; both it and the table compute in place on one buffer.
The grid has a fixed GRID_PER_BIN points per bin: the costs depend on
the gap and the target alone, so its density is not part of the problem.
best_window finds the window where the two worst cases cross with a
galloping search from a start window and keeps the better of the pair at
the crossing; since the crossing is monotone in the window, the start
sets only the cost.  The crossing sits at a fixed phase, which spans
twice as many bins with each added qubit, so a sweep over mu
(calibrate_workspace, scaling_constant) starts each mu from the previous
mu's window scaled by that.
measure_eta drives the actual operator and is the cross-check for both.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, asdict

import numpy as np

from .statevec import (LinearOperator, SubspaceProjector, apply, check_amplitude_dtype,
                       compose, in_frame, main_rows, phase_tables, real_dtype, require_int)
from .spectral import SpectralUnitary, MarkTarget, wrap_angle

ETA_TARGET_DEFAULT = 2.0 ** -5
VERIFICATION_DIM = 2  # eigendirections of verification_model: one marked, one not
_TWO_PI_HI = float.fromhex("0x1.921fb54p+2")  # 2 pi to 29 significant bits
# window_response_mass is exact only while k * _TWO_PI_HI is, i.e. for bins
# |k| <= 2^24; a phase in [-pi, pi] lies in a bin |k| <= 2^(mu-1).
MU_MAX = 25
GRID_PER_BIN = 64  # box-sum grid points per bin in the worst-case search


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
    dtype (long double for complex256), one path for every dtype."""
    out = np.array(a, order="C")
    flat = out.view(real_dtype(a.dtype))
    for bit in range(a.shape[1].bit_length() - 1):
        pairs = flat.reshape(-1, 2, flat.shape[2] << bit)
        x, y = pairs[:, 0], pairs[:, 1]
        diff = x - y
        x += y
        y[...] = diff
    flat *= 1 / np.sqrt(flat.dtype.type(a.shape[1]))
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
    dtype is one of statevec.AMPLITUDE_DTYPES (ValueError otherwise).
    """
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
    mass is an O(window) sum per phase.
    """
    layout = WorkspaceLayout(mu, window)
    mu, window, wdim = layout.mu, layout.window, layout.work_dim
    lam = np.asarray(lam, dtype=float)
    if lam.ndim > 1:
        raise ValueError(f"lam must be a scalar or 1-D, got shape {lam.shape}")
    lam = np.atleast_1d(lam)
    # r = lam - k beta to the nearest bin k, exact up to its own rounding as
    # k * _TWO_PI_HI is exact (k < 2^24).  Element z lies d = k - z (mod W,
    # in [-W/2, W/2)) bins on: u = r + d beta and sin(W u/2) = +-sin(W r/2).
    k = np.round(lam * (wdim / (2 * np.pi)))
    r = (lam - k * (_TWO_PI_HI / wdim)) - k * ((2 * np.pi - _TWO_PI_HI) / wdim)
    k_mod = ((k.astype(np.int64) + wdim // 2) % wdim - wdim // 2).astype(float)
    half = np.add(k_mod[:, None], _window_offsets(mu, window))  # d, then u/2
    wraps = np.abs(k_mod) + window >= wdim // 2
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
    return half.sum(axis=1)


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


def _box_grid(mu: int, window: int, lo: float, hi: float, grid_per_bin: int):
    """Grid phases (a + c/G) beta strictly inside (lo, hi), with
    beta = 2 pi / W and G = grid_per_bin, and their in-window masses.

    Window element k sees (a, c) at offset (a - k + c/G) beta, so the mass
    there is the box sum over rows a-w..a+w of
    F[r, c] = (sin(pi c/G) / (W sin((r + c/G) pi/W)))^2, whose rows repeat
    mod W.  Prefix sums over the rows the boxes touch give each box in one
    subtraction.
    """
    wdim, g = 2 ** mu, grid_per_bin
    step = 2 * np.pi / (wdim * g)
    n0, n1 = int(np.floor(lo / step)) + 1, int(np.ceil(hi / step)) - 1
    a0, span = n0 // g, max(0, n1 // g - n0 // g + 1)
    rows = (np.arange(a0 - window, a0 + span + window) + wdim // 2) % wdim - wdim // 2
    cols = np.arange(g) / g
    # The table is built, and summed, in place in its prefix buffer.
    prefix = np.zeros((len(rows) + 1, g))
    table = prefix[1:]
    np.add(rows[:, None], cols, out=table)
    table *= np.pi / wdim
    np.sin(table, out=table)
    table *= wdim
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(np.sin(np.pi * cols), table, out=table)
    np.multiply(table, table, out=table)
    table[rows == 0, 0] = 1.0
    np.cumsum(table, axis=0, out=table)
    inside = (prefix[2 * window + 1:] - prefix[:span]).ravel()[n0 - a0 * g:n1 - a0 * g + 1]
    return np.arange(n0, n1 + 1) * step, inside


def _sup_scan(mu: int, window: int, lo: float, hi: float, grid_per_bin: int,
              outside: bool = False):
    """(lam, mass) with the largest in-window mass (out-of-window mass when
    outside) over [lo, hi].  The three best of the box-sum grid, lo and hi
    are refined together with the exact kernel, which gives the mass
    returned: each of the four steps evaluates every candidate's 33-point
    sub-grid in one kernel call, and a point two candidates share once."""
    xs, inside = _box_grid(mu, window, lo, hi, grid_per_bin)
    xs = np.concatenate((xs, [lo, hi]))
    sign = -1.0 if outside else 1.0
    vals = sign * np.concatenate((inside, window_response_mass([lo, hi], mu, window)))
    cx = xs[np.argsort(vals)[::-1][:3]]
    pick = np.arange(len(cx))
    cstep = 2 * np.pi / 2 ** mu / grid_per_bin
    for _ in range(4):
        # Row by row as the scalar linspace: numpy leaves its multiply-first
        # path for all rows only when a row has zero width, i.e. lo == hi.
        sub = np.linspace(np.maximum(lo, cx - cstep), np.minimum(hi, cx + cstep), 33, axis=1)
        points, where = np.unique(sub, return_inverse=True)
        sv = (sign * window_response_mass(points, mu, window))[where.reshape(sub.shape)]
        j = np.argmax(sv, axis=1)
        cx, cv = sub[pick, j], sv[pick, j]
        cstep /= 8.0
    best = int(np.argmax(cv))
    best_x, best_v = float(cx[best]), float(cv[best])
    return best_x, 1.0 + best_v if outside else best_v


def worst_unmarked_mass(mu: int, window: int, delta: float):
    """(worst lam, in-window mass) over circle distance >= delta/2.

    Sweeps an adaptive region past theta_min densely and stops once the
    envelope bound proves nothing beyond the region can exceed the maximum
    already found.
    """
    bin_width = 2 * np.pi / 2 ** mu
    lo = delta / 2.0
    edge = bin_width * window
    if edge >= lo:
        # The window itself reaches past theta_min: the grid point at the
        # window edge is a legal unmarked phase with in-window mass 1.
        return edge, 1.0
    region = 64.0
    while True:
        hi = min(np.pi, lo + region * bin_width)
        lam, mass = _sup_scan(mu, window, lo, hi, GRID_PER_BIN)
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


def best_window(mu: int, delta: float, b: float, *,
                start: int | None = None) -> WindowChoice:
    """Window minimizing the worst-case eta at a given mu.

    The out-of-window (marked) mass falls and the in-window (unmarked)
    mass rises monotonically with the window, so "crossed" (marked eta at
    most unmarked eta) is false below one window and true from it on, and
    the optimum sits at that crossing.  A galloping bracket finds it: from
    start (clamped to [0, 2^(mu-1) - 1]) it probes start + 1, 2, 4, ...
    while the window has not crossed, or start - 1, 2, 4, ... while it
    has, and bisects the bracket.  The answer is the better of the first
    crossed window and the one below it, both probed by then: above the
    crossing eta is at least the (rising) unmarked eta, below it at least
    the (falling) marked eta.  Each window's worst case depends on the
    window alone and the first crossed window is the same wherever the
    search starts, so start changes which windows are probed, never the
    result.  By default the search starts at round(2^mu delta / (6 pi)),
    the window whose edge sits at phase delta/3, near where the worst
    cases cross (0.34-0.36 delta on the pinned configurations).  A start
    next to the answer probes 2-5 windows where start=0 probes 19 at
    (11, 3.0, 0.05); a sweep over mu passes the previous mu's window
    scaled to this mu instead (_mu_sweep).
    """
    mu = WorkspaceLayout(mu, 0).mu
    check_search(delta, b)
    wmax = 2 ** (mu - 1) - 1

    @functools.cache
    def choice(w: int) -> WindowChoice:
        # The marked band |lam| <= b*delta: the response is symmetric under
        # lam -> -lam for the symmetric window, so only lam >= 0 is swept.
        lam_m, mass_m = _sup_scan(mu, w, 0.0, b * delta, GRID_PER_BIN, outside=True)
        lam_u, mass_u = worst_unmarked_mass(mu, w, delta)
        return WindowChoice(w, float(np.sqrt(max(mass_m, 0.0))),
                            float(np.sqrt(max(mass_u, 0.0))), lam_m, lam_u)

    def crossed(w: int) -> bool:
        return choice(w).eta_marked <= choice(w).eta_unmarked

    # Galloping keeps every probed window near start (windows far above
    # the optimum are large and expensive to sum over); with start=0 the
    # probes are 0, 1, 2, 4, ....  The first crossed window then lies in
    # [lo, hi], or is taken as wmax when none has crossed.
    if start is None:
        start = round(2 ** mu * delta / (6 * np.pi))
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
    lo += bisect.bisect_left(range(lo, hi), True, key=crossed)
    return min((choice(w) for w in range(max(0, lo - 1), lo + 1)), key=lambda c: c.eta)


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


def _mu_sweep(mu_values, delta: float, b: float):
    """(mu, best_window choice) for each mu in turn.  The crossing sits at
    a fixed phase, which spans 2^(mu - mu') times as many bins at mu as at
    the previous mu', so each search starts from the previous window
    scaled by that, truncated: twice the window for consecutive mu."""
    window = prev_mu = None
    for mu in mu_values:
        start = None if window is None else int(window * 2.0 ** (mu - prev_mu))
        choice = best_window(mu, delta, b, start=start)
        yield mu, choice
        window, prev_mu = choice.window, mu


def calibrate_workspace(delta: float, b: float, eta_target: float = ETA_TARGET_DEFAULT,
                        mu_cap: int = 20) -> CalibrationResult:
    """Smallest mu (with its window) whose worst-case eta meets the target.

    Worst cases are taken over |lam| <= b*delta for the marked side and
    circle distance >= delta/2 for the unmarked side.  When no mu up to
    min(mu_cap, MU_MAX) reaches the target, the result carries
    converged=False and the best (mu, window) found.  Every call searches
    cold and the search is deterministic, so the result is a function of
    the arguments alone.
    """
    mu_cap = require_int(mu_cap, "mu_cap")
    check_search(delta, b)
    if not (0.0 < eta_target <= 1.0):
        raise ValueError(f"eta_target {eta_target!r} outside (0, 1]")
    if mu_cap < 1:
        raise ValueError(f"mu_cap {mu_cap!r} must be at least 1")
    best = None
    for mu, choice in _mu_sweep(range(1, min(mu_cap, MU_MAX) + 1), delta, b):
        candidate = CalibrationResult(delta=delta, b=b, eta_target=eta_target, mu=mu,
                                      converged=choice.eta <= eta_target, **asdict(choice))
        if best is None or candidate.eta < best.eta:
            best = candidate
        if candidate.converged:
            break
    return best


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
    """eta * sqrt(2^mu * delta) over a mu sweep at per-mu optimal windows,
    eta from the closed form.  Returns (largest constant observed, per-mu
    records)."""
    records = [{"mu": mu, "window": choice.window, "eta": choice.eta,
                "constant": choice.eta * np.sqrt(2 ** mu * delta)}
               for mu, choice in _mu_sweep(mu_values, delta, b)]
    return max((r["constant"] for r in records), default=0.0), records

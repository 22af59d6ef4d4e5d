"""Phase estimation on an ancilla workspace: operator construction, the
window subspace, per-eigenphase error measurement, and empirical
calibration of the workspace size.

The estimation operator on a mu-qubit workspace is
inverse-QFT . controlled-powers . Walsh-Hadamard.  Its action is computed
with FFTs and a fast Walsh-Hadamard transform, O(W log W) per application
at W = 2^mu, so no dense matrix is ever formed.  Each application charges
the U counter with exactly 2^mu and the P counter with 1; adjoint
applications charge the same.

Calibration locates worst-case eigenphases with a closed-form Dirichlet
kernel for the workspace response (grid search plus local refinement,
with a provable envelope bound that limits how far the unmarked sweep must
reach).  measure_eta drives the actual operator on actual states and is
the cross-check for the closed form.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, asdict

import numpy as np

from .statevec import (
    LinearOperator,
    SubspaceProjector,
    apply,
    product_state,
    real_dtype,
)
from .spectral import SpectralUnitary, MarkTarget, build_shifted, wrap_angle

ETA_TARGET_DEFAULT = 2.0 ** -5


@dataclass(frozen=True)
class WorkspaceLayout:
    """Ancilla register geometry: mu qubits and the symmetric window.

    Z = {z : min(z, 2^mu - z) <= window} flags "estimated phase near zero";
    its complement is Z-perp.  The standard state sigma is |0...0>.
    """

    mu: int
    window: int

    def __post_init__(self) -> None:
        if self.mu < 1:
            raise ValueError("mu must be at least 1")
        if not (0 <= self.window < 2 ** (self.mu - 1)):
            raise ValueError(f"window {self.window} outside [0, 2^(mu-1)) for mu={self.mu}")

    @property
    def work_dim(self) -> int:
        return 2 ** self.mu

    @property
    def sigma_index(self) -> int:
        return 0

    def window_indices(self) -> np.ndarray:
        w, dim = self.window, self.work_dim
        if w == 0:
            return np.array([0])
        return np.concatenate([np.arange(0, w + 1), np.arange(dim - w, dim)])

    def z_window(self) -> SubspaceProjector:
        return SubspaceProjector(self.work_dim, tuple(int(z) for z in self.window_indices()))

    def sigma_state(self, dtype=np.complex128) -> np.ndarray:
        v = np.zeros(self.work_dim, dtype=dtype)
        v[self.sigma_index] = 1.0
        return v


def _fwht_axis1(a: np.ndarray) -> np.ndarray:
    """Normalized Walsh-Hadamard transform along axis 1 of (m, W, k)."""
    m, dim, k = a.shape
    out = a
    h = 1
    while h < dim:
        out = out.reshape(m, dim // (2 * h), 2, h, k)
        out = np.stack((out[:, :, 0] + out[:, :, 1], out[:, :, 0] - out[:, :, 1]), axis=2)
        out = out.reshape(m, dim, k)
        h *= 2
    return out / np.sqrt(real_dtype(a.dtype).type(dim))


def build_pea(shifted: LinearOperator, layout: WorkspaceLayout) -> LinearOperator:
    """Joint-space estimation operator for the shifted unitary.

    Walsh-Hadamard on the workspace, then the z-controlled power of the
    shifted operator on the main space, then the inverse QFT on the
    workspace.  Cost per application: 2^mu on the U counter (the stated
    accounting convention, even though a ladder of controlled squarings
    could be tallied as 2^mu - 1) and 1 on the P counter.

    The shifted operator must carry its eigensystem (as build_shifted's
    does); an operator without one is rejected with ValueError.
    """
    if shifted.eigensystem is None:
        raise ValueError("build_pea needs an operator that carries its eigensystem")
    phases, basis = shifted.eigensystem
    lam = np.asarray(phases, dtype=float)
    main_dim = shifted.dim
    wdim = layout.work_dim
    dim = main_dim * wdim
    cache: dict = {}

    def tables(dtype):
        key = np.dtype(dtype)
        if key not in cache:
            work = real_dtype(key)
            ph = lam.astype(work)
            z = np.arange(wdim, dtype=work)
            scale = work.type(1.0) / np.sqrt(work.type(wdim))
            mask = np.exp(1j * ph[:, None] * z[None, :]).astype(dtype)
            e = None if basis is None else basis.astype(dtype)
            ec = None if basis is None else e.conj().T
            cache[key] = (mask, e, ec, scale)
        return cache[key]

    def apply_fn(x, _tally):
        mask, e, ec, scale = tables(x.dtype)
        a = x.reshape(main_dim, wdim, -1)
        a = _fwht_axis1(a)
        if e is not None:
            a = np.tensordot(ec, a, axes=(1, 0))
        a = a * mask[:, :, None]
        if e is not None:
            a = np.tensordot(e, a, axes=(1, 0))
        a = np.fft.fft(a, axis=1) * scale
        return a.reshape(dim, x.shape[1])

    def adjoint_fn(x, _tally):
        mask, e, ec, scale = tables(x.dtype)
        a = x.reshape(main_dim, wdim, -1)
        a = np.fft.ifft(a, axis=1) / scale
        if e is not None:
            a = np.tensordot(ec, a, axes=(1, 0))
        a = a * mask.conj()[:, :, None]
        if e is not None:
            a = np.tensordot(e, a, axes=(1, 0))
        a = _fwht_axis1(a)
        return a.reshape(dim, x.shape[1])

    return LinearOperator(dim, apply_fn, adjoint_fn, cost=(("U", wdim), ("P", 1)))


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
    """
    if pea_op.dim != spec.dim * layout.work_dim:
        raise ValueError(f"operator dim {pea_op.dim} != {spec.dim} * {layout.work_dim}")
    window_mask = layout.z_window().mask()
    entries = []
    for i in range(spec.dim):
        marked = i in target.marked_indices
        state = product_state(spec.basis_column(i).astype(dtype), layout.sigma_state(dtype))
        out = apply(pea_op, state, "joint").tensor()
        wrong = ~window_mask if marked else window_mask
        eta_i = float(np.linalg.norm(out[:, wrong]))
        entries.append(EtaEntry(i, target.lambdas[i], marked, eta_i))
    eta_m = max((e.eta for e in entries if e.marked), default=0.0)
    eta_u = max((e.eta for e in entries if not e.marked), default=0.0)
    return EtaReport(tuple(entries), eta_m, eta_u)


# ---------------------------------------------------------------------------
# Closed-form workspace response and worst-case search.

def window_response_mass(lam, mu: int, window: int) -> np.ndarray:
    """Probability mass the estimation operator leaves inside the window for
    an eigendirection with shifted phase lam (vectorized over lam).

    The workspace amplitude at z is the Dirichlet ratio
    sin(W u/2) / (W sin(u/2)) with u = lam - 2 pi z / W, so the in-window
    mass is an O(window) sum per phase; this is the exhaustive
    per-eigenphase amplitude computation used by calibration.
    """
    wdim = 2 ** mu
    if not (0 <= window < wdim // 2):
        raise ValueError(f"window {window} outside [0, 2^(mu-1))")
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    zs = WorkspaceLayout(mu, window).window_indices()
    u = lam[:, None] - (2 * np.pi / wdim) * zs[None, :]
    u -= 2 * np.pi * np.round(u / (2 * np.pi))
    x = 0.5 * u
    # sin is exact enough near 0 that only x == 0 needs the limit value
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin(wdim * x) / (wdim * np.sin(x))
    ratio = np.where(x == 0.0, 1.0, ratio)
    return (ratio * ratio).sum(axis=1)


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


def _sup_scan(mass_fn, lo: float, hi: float, points: int,
              refine_rounds: int = 4, top: int = 3):
    """Deterministic grid-plus-refinement maximum of mass_fn on [lo, hi]."""
    if hi <= lo:
        v = float(mass_fn(np.array([lo]))[0])
        return lo, v
    points = max(65, points)
    xs = np.linspace(lo, hi, points)
    vals = np.empty(points)
    chunk = 8192
    for start in range(0, points, chunk):
        vals[start:start + chunk] = mass_fn(xs[start:start + chunk])
    step = (hi - lo) / (points - 1)
    order = np.argsort(vals)[::-1][:top]
    best_x, best_v = float(xs[order[0]]), float(vals[order[0]])
    for idx in order:
        cx, cv, cstep = float(xs[idx]), float(vals[idx]), step
        for _ in range(refine_rounds):
            sub = np.linspace(max(lo, cx - cstep), min(hi, cx + cstep), 33)
            sv = mass_fn(sub)
            j = int(np.argmax(sv))
            cx, cv = float(sub[j]), float(sv[j])
            cstep /= 8.0
        if cv > best_v:
            best_x, best_v = cx, cv
    return best_x, best_v


def worst_marked_mass(mu: int, window: int, delta: float, b: float,
                      grid_per_bin: int = 64):
    """(worst lam, out-of-window mass) over the marked band |lam| <= b*delta.

    The response is symmetric under lam -> -lam for the symmetric window,
    so only the nonnegative half is swept.
    """
    bin_width = 2 * np.pi / 2 ** mu
    hi = b * delta
    points = int(np.ceil(hi / bin_width * grid_per_bin)) + 1
    lam, mass = _sup_scan(lambda xs: 1.0 - window_response_mass(xs, mu, window),
                          0.0, hi, points)
    return lam, mass


def worst_unmarked_mass(mu: int, window: int, delta: float,
                        grid_per_bin: int = 64):
    """(worst lam, in-window mass) over circle distance >= delta/2.

    Sweeps an adaptive region past theta_min densely and stops once the
    envelope bound proves nothing beyond the region can exceed the maximum
    already found.
    """
    wdim = 2 ** mu
    bin_width = 2 * np.pi / wdim
    lo = delta / 2.0
    edge = bin_width * window
    if edge >= lo:
        # The window itself reaches past theta_min: the grid point at the
        # window edge is a legal unmarked phase with in-window mass 1.
        return edge, 1.0
    region = 64.0
    while True:
        hi = min(np.pi, lo + region * bin_width)
        points = int(np.ceil((hi - lo) / bin_width * grid_per_bin)) + 1
        lam, mass = _sup_scan(lambda xs: window_response_mass(xs, mu, window),
                              lo, hi, points)
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


def best_window(mu: int, delta: float, b: float, grid_per_bin: int = 64) -> WindowChoice:
    """Window minimizing the worst-case eta at a given mu.

    The out-of-window (marked) mass falls and the in-window (unmarked)
    mass rises monotonically with the window, so the optimum sits at their
    crossing; a bracketed search at reduced density finds it, and the
    nearby candidates are then compared at full density.
    """
    wmax = 2 ** (mu - 1) - 1
    coarse = max(8, grid_per_bin // 4)

    def crossed(w: int) -> bool:
        _, marked = worst_marked_mass(mu, w, delta, b, coarse)
        _, unmarked = worst_unmarked_mass(mu, w, delta, coarse)
        return marked <= unmarked

    # Exponential bracket from below keeps every probed window near the
    # optimum (windows far above it are large and expensive to sum over).
    lo = 0
    hi = 0
    while not crossed(hi) and hi < wmax:
        lo = hi + 1
        hi = min(wmax, max(2 * hi, hi + 1))
    while lo < hi:
        mid = (lo + hi) // 2
        if crossed(mid):
            hi = mid
        else:
            lo = mid + 1
    best = None
    for w in range(max(0, lo - 2), min(wmax, lo + 2) + 1):
        lam_m, mass_m = worst_marked_mass(mu, w, delta, b, grid_per_bin)
        lam_u, mass_u = worst_unmarked_mass(mu, w, delta, grid_per_bin)
        choice = WindowChoice(w, float(np.sqrt(max(mass_m, 0.0))),
                              float(np.sqrt(max(mass_u, 0.0))), lam_m, lam_u)
        if best is None or choice.eta < best.eta:
            best = choice
    return best


@dataclass(frozen=True)
class CalibrationResult:
    delta: float
    b: float
    eta_target: float
    grid_per_bin: int
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


def _cache_key(delta: float, b: float, eta_target: float, grid_per_bin: int) -> str:
    return f"delta={delta!r}|b={b!r}|eta_target={eta_target!r}|grid={grid_per_bin}"


def calibrate_workspace(delta: float, b: float, eta_target: float = ETA_TARGET_DEFAULT,
                        mu_cap: int = 20, grid_per_bin: int = 64,
                        cache_path=None) -> CalibrationResult:
    """Smallest mu (with its window) whose worst-case eta meets the target.

    Worst cases are taken over |lam| <= b*delta for the marked side and
    circle distance >= delta/2 for the unmarked side.  When no mu up to
    mu_cap reaches the target, the result carries converged=False and the
    best (mu, window) found.  Results are cached in a JSON file keyed by
    (delta, b, eta_target, grid density) when cache_path is given.
    """
    if not (0.0 < delta <= np.pi):
        raise ValueError(f"delta {delta!r} outside (0, pi]")
    if not (0.0 < b <= 0.25):
        raise ValueError(f"b {b!r} outside (0, 0.25]")
    if not (0.0 < eta_target <= 1.0):
        raise ValueError(f"eta_target {eta_target!r} outside (0, 1]")
    key = _cache_key(delta, b, eta_target, grid_per_bin)
    if cache_path is not None and os.path.exists(cache_path):
        with open(cache_path, "r", encoding="utf-8") as fh:
            cached = json.load(fh)
        if key in cached:
            return CalibrationResult(**cached[key])

    best = None
    result = None
    for mu in range(1, mu_cap + 1):
        # Quarter-density probe; refinement keeps it within a few percent
        # of the full-density value, so 1.3x the target safely rejects
        # infeasible mu without the full-density candidate evaluation.
        choice = best_window(mu, delta, b, max(8, grid_per_bin // 4))
        if choice.eta <= 1.3 * eta_target:
            choice = best_window(mu, delta, b, grid_per_bin)
        candidate = CalibrationResult(
            delta=delta, b=b, eta_target=eta_target, grid_per_bin=grid_per_bin,
            mu=mu, window=choice.window,
            eta_marked=choice.eta_marked, eta_unmarked=choice.eta_unmarked,
            lam_marked=choice.lam_marked, lam_unmarked=choice.lam_unmarked,
            converged=choice.eta <= eta_target,
        )
        if best is None or candidate.eta < best.eta:
            best = candidate
        if candidate.converged:
            result = candidate
            break
    if result is None:
        result = best

    if cache_path is not None:
        cached = {}
        if os.path.exists(cache_path):
            with open(cache_path, "r", encoding="utf-8") as fh:
                cached = json.load(fh)
        cached[key] = asdict(result)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(cache_path)) or ".")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(cached, fh, indent=2, sort_keys=True)
        os.replace(tmp, cache_path)
    return result


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
    spec = SpectralUnitary(dim=2, eigenphases=(lam_marked, lam_unmarked), delta=gap)
    target = MarkTarget.resolve(spec, psi_prime=0.0, phi=phi, b=b_model, marked_index=0)
    return spec, target


def scaling_constant(mu_values, delta: float, b: float, grid_per_bin: int = 64,
                     verify=None) -> tuple[float, list[dict]]:
    """eta * sqrt(2^mu * delta) over a mu sweep at per-mu optimal windows.

    Returns (largest constant observed, per-mu records).  When ``verify``
    is a dtype, each point is re-measured by driving the actual operator
    on a worst-case model instead of trusting the closed form.
    """
    records = []
    worst = 0.0
    for mu in mu_values:
        choice = best_window(mu, delta, b, grid_per_bin)
        eta = choice.eta
        if verify is not None:
            spec, target = verification_model(delta, b, choice.lam_marked, choice.lam_unmarked)
            layout = WorkspaceLayout(mu, choice.window)
            report = measure_eta(build_pea(build_shifted(spec, target), layout),
                                 spec, target, layout, dtype=verify)
            eta = report.eta
        const = eta * np.sqrt(2 ** mu * delta)
        worst = max(worst, const)
        records.append({"mu": mu, "window": choice.window, "eta": eta, "constant": const})
    return worst, records

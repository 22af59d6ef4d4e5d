"""Assembly of the full marking operator and measurement of its deviation
from the ideal selective phase.

The assembled marker is core+ . (1_main x I_Z^phi) . core, where core is
any of the estimation variants (plain, voting tensor, fixed-point level q)
and Z is the workspace subspace that flags "marked".  Every variant's core
applies H first, H = H^(x nu) = pea.walsh_hadamard on the W^nu workspace
amplitudes (nu = 1 but for voting): V_F . H, voting's T . H^(x nu) and
the fixed-point core_q^u(V_F) . H (see voting, fpqs).  So the marker is
H . inner . H, where inner = core'+ . (1_main x I_Z^phi) . core' is built
from the V_F factors alone (core' = V_F, T or core_q^u(V_F)).  H is real,
orthogonal and its own inverse, and H sigma = u is the uniform state, so
|| marker(c x sigma) - ideal c x sigma || = || inner(c x u) - ideal c x u ||
exactly, and an evaluation drives inner on u, formed from its formula
(uniform_state): only V_F applications and workspace phases, no H.

Every variant is built from phases in the eigenframe of U, where it acts
on each eigendirection separately.  So one helper builds inner on a tuple
of eigenphases, and an assembly holds it twice over, never turned by the
eigenbasis: on all eigendirections and on each alone, a workspace
operator.  The helper never counts the eigendirections: the estimation
factors take one row per eigenphase, the other builders read theirs from
the operator they wrap, and the Z-phase goes on every row.  Deviation is
the Euclidean residual against the ideal marker, diagonal in the
eigenframe, per eigendirection (each through its own inner marker, so no
application transforms rows that stay zero) and over superposition probes
drawn as eigen-coefficients (through inner on all rows).  So no report
reads the eigenbasis or applies H; the audit checks the physical marker
H . inner . H (MarkerAssembly.frame) turned by the eigenbasis
(statevec.in_frame) against those outputs in check_marker_joint_oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .statevec import (
    LinearOperator,
    SubspaceProjector,
    Tally,
    apply,
    check_amplitude_dtype,
    compose,
    main_rows,
    phase_tables,
    real_dtype,
    require_int,
)
from .spectral import SpectralUnitary, MarkTarget, check_target
from .pea import (CalibrationResult, WorkspaceLayout, estimation_factors, verification_model,
                  walsh_hadamard)
from .fpqs import ETA_REGIME, build_fixed_point, check_level, selective_phase
from .voting import check_joint_dim, majority_projector, require_odd
from .complexity import ComplexityCounters, plan_recursion

VARIANTS = ("pea", "voting", "fixed_point")


def assemble_marker(core: LinearOperator, phi: float,
                    zproj: SubspaceProjector) -> LinearOperator:
    """core+ . (1_main x I_Z^phi) . core, on every main row of core; costs
    two core applications each time it is applied."""
    rotate = selective_phase(zproj, phi, main_rows(core, zproj.dim))
    return compose(core.adjoint, rotate, core)


@dataclass(frozen=True, eq=False)
class MarkerAssembly:
    """An assembled marker plus the bookkeeping needed to evaluate it, in
    the eigenframe of U (eigendirection i is the main basis state e_i),
    never turned by the eigenbasis.

    target is the resolved target it was built for, the one evaluate_marker
    takes.  inner is the marker on all eigendirections without its
    Walsh-Hadamard ends; frame = H . inner . H is the physical marker, with
    H the transform on the work_dim amplitudes of each row
    (pea.walsh_hadamard, composed on access).  directions[i] is inner for
    eigendirection i alone, on the workspace: on the uniform state
    u = uniform(dtype) it gives row i of inner on e_i (x) u, whose other
    rows are zero."""

    variant: str
    target: MarkTarget
    inner: LinearOperator
    directions: tuple[LinearOperator, ...]
    work_dim: int
    mu: int
    q: int | None
    nu: int | None
    ancillas: int

    @property
    def q_or_nu(self) -> int | None:
        return self.q if self.q is not None else self.nu

    @property
    def frame(self) -> LinearOperator:
        """The physical marker H . inner . H on all eigendirections."""
        hadamard = walsh_hadamard(self.inner.dim, self.work_dim)
        return compose(hadamard, self.inner, hadamard)

    def uniform(self, dtype=np.complex128) -> np.ndarray:
        """u = H sigma on the workspace, in dtype: the start state of inner
        and directions."""
        return uniform_state(self.work_dim, dtype)


def uniform_state(work_dim: int, dtype=np.float64) -> np.ndarray:
    """The uniform state u = H sigma on a workspace of work_dim amplitudes,
    in dtype: every amplitude is 1/sqrt(work_dim), the root taken in
    real_dtype(dtype)."""
    return np.full(work_dim, 1 / np.sqrt(real_dtype(dtype).type(work_dim)), dtype)


def check_variant(variant: str, q: int | None, nu: int | None) -> None:
    """Reject a variant and argument combination that build_assembly would
    reject, without building anything."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant == "pea":
        if q is not None or nu is not None:
            raise ValueError("variant 'pea' takes neither q nor nu")
    elif variant == "fixed_point":
        if q is None or nu is not None:
            raise ValueError("variant 'fixed_point' takes q (and not nu)")
        check_level(q)
    else:
        if nu is None or q is not None:
            raise ValueError("variant 'voting' takes nu (and not q)")
        require_odd(nu)


def _eigen_marker(lam, layout: WorkspaceLayout, u: np.ndarray, zproj: SubspaceProjector,
                  phi: float, variant: str, q: int | None, nu: int | None) -> LinearOperator:
    """The marker without its Walsh-Hadamard ends in the eigenframe, on
    eigendirections with shifted phases lam, main index i for lam[i]:
    core'+ . (1 x I_Z^phi) . core' with core' = V_F (pea), the registers'
    V_F factors (voting) or core_q^u(V_F), the recursion on V_F with its
    sigma-phases about the uniform state u = H sigma (fixed_point).  zproj
    is the variant's marked workspace subspace (the window, or voting's
    winning majority)."""
    if variant == "voting":
        check_joint_dim(len(lam), layout.work_dim, nu)
        core = compose(*estimation_factors(lam, layout, nu))
    else:
        v_f, = estimation_factors(lam, layout)
        core = v_f if variant == "pea" else build_fixed_point(v_f, q, zproj, u)
    return assemble_marker(core, phi, zproj)


def build_assembly(spec: SpectralUnitary, target: MarkTarget, layout: WorkspaceLayout,
                   variant: str, q: int | None = None,
                   nu: int | None = None) -> MarkerAssembly:
    """Construct the chosen variant's marker without its Walsh-Hadamard
    ends in the eigenframe, once on all eigendirections and once on each
    eigendirection alone."""
    check_variant(variant, q, nu)
    check_target(spec, target)
    if variant == "voting":
        zproj, ancillas = majority_projector(layout.z_window(), nu), nu * layout.mu
    else:
        zproj, ancillas = layout.z_window(), layout.mu
    marker_on = functools.partial(_eigen_marker, layout=layout, u=uniform_state(layout.work_dim),
                                  zproj=zproj, phi=target.phi, variant=variant, q=q, nu=nu)
    return MarkerAssembly(
        variant=variant, target=target, inner=marker_on(target.lambdas),
        directions=tuple(marker_on((phase,)) for phase in target.lambdas),
        work_dim=zproj.dim, mu=layout.mu, q=q, nu=nu, ancillas=ancillas,
    )


@dataclass(frozen=True)
class ResidualEntry:
    index: int
    eigenphase: float
    lam: float
    marked: bool
    residual: float


@dataclass(frozen=True)
class MarkerErrorReport:
    """Residuals of the assembled marker against the ideal one.

    residual_i = || assembled(|psi_i>|sigma>) - (ideal |psi_i>) (x) |sigma> ||,
    read through eigendirection i's own inner marker on u = H sigma.  A
    superposition residual, read through inner on unit eigen-coefficients
    c (the state E c), can never exceed the eigendirection maximum (the
    marker is block-diagonal across eigendirections); the report records
    whether that held.  No field depends on the eigenbasis.
    """

    variant: str
    phi: float
    mu: int
    q_or_nu: int | None
    entries: tuple[ResidualEntry, ...]
    worst_residual: float
    superposition_residual: float
    superposition_within_eigen_max: bool
    counters: ComplexityCounters

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "phi": self.phi,
            "mu": self.mu,
            "q_or_nu": self.q_or_nu,
            "worst_residual": self.worst_residual,
            "superposition_residual": self.superposition_residual,
            "superposition_within_eigen_max": self.superposition_within_eigen_max,
            "counters": {"N_U": self.counters.n_u, "N_A": self.counters.n_a,
                         "N_P": self.counters.n_p},
            "entries": [
                {"direction": e.index, "eigenphase": e.eigenphase, "lam": e.lam,
                 "marked": e.marked, "residual": e.residual}
                for e in self.entries
            ],
        }

    def csv_rows(self) -> list[dict]:
        """One row per eigendirection, keyed by CSV_COLUMNS."""
        return [
            {"direction": e.index, "eigenphase": e.eigenphase, "residual": e.residual,
             "variant": self.variant, "mu": self.mu, "q_or_nu": self.q_or_nu,
             "N_U": self.counters.n_u, "N_A": self.counters.n_a}
            for e in self.entries
        ]


CSV_COLUMNS = ("direction", "eigenphase", "residual", "variant", "mu", "q_or_nu",
               "N_U", "N_A")


def application_counters(assembly: MarkerAssembly) -> ComplexityCounters:
    """Exact counters of one application of the assembled marker.  Tally
    charges per application whatever the state, and every eigendirection's
    marker charges as the whole one, so the first direction will do."""
    tally = Tally()
    apply(assembly.directions[0], [np.ones(1, dtype=complex)], assembly.uniform(), tally)
    return ComplexityCounters.from_tally(tally, assembly.ancillas)


def measured_cell(calib: CalibrationResult, eps: float) -> dict:
    """The measured fixed-point record complexity.tabulate takes for
    (calib.delta, eps): the level q planned from the calibrated eta (capped
    at the working regime), and the exact counters of one marker
    application on the calibrated verification model."""
    q = plan_recursion(min(calib.eta, ETA_REGIME), eps)
    spec, target = verification_model(calib.delta, calib.b, calib.lam_marked,
                                      calib.lam_unmarked)
    counters = application_counters(
        build_assembly(spec, target, calib.layout(), "fixed_point", q=q))
    return {"variant": "fixed_point", "delta": calib.delta, "eps": eps,
            "mu": calib.mu, "q": q, "nu": None,
            "n_u": counters.n_u, "n_a": counters.n_a, "n_p": counters.n_p}


def evaluate_marker(assembly: MarkerAssembly, spec: SpectralUnitary, target: MarkTarget,
                    n_random: int = 8, seed: int = 0,
                    dtype=np.complex128) -> MarkerErrorReport:
    """Residuals per eigendirection plus n_random superposition probes
    (unit eigen-coefficient vectors from normal draws with seed), with the
    resource counters accumulated over the whole run.  n_random is an int
    (TypeError otherwise, a bool included); a negative count is a
    ValueError.  So is a target other than the assembly's, or one spec
    does not resolve to (spectral.check_target), and a dtype outside
    statevec.AMPLITUDE_DTYPES; all are checked before any draw."""
    n_random = require_int(n_random, "n_random")
    if n_random < 0:
        raise ValueError(f"n_random must be nonnegative, got {n_random}")
    if target != assembly.target:
        raise ValueError("target is not the one the assembly was built for")
    check_target(spec, target)
    check_amplitude_dtype(dtype)
    tally = Tally()
    rng = np.random.default_rng(seed)
    probes = []
    for _ in range(n_random):
        coeffs = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
        probes.append((coeffs / np.linalg.norm(coeffs)).astype(dtype))
    # Every eigendirection (u through its own inner marker) and every probe
    # (its eigen-coefficients through inner on all rows) is an independent
    # application, so all go to the driver in one call.
    directions = assembly.directions
    u = assembly.uniform(dtype)
    outs = apply(directions + (assembly.inner,) * n_random,
                 [np.ones(1, dtype=dtype)] * len(directions) + probes, u, tally)
    # The ideal marker's phase on each eigendirection times the start
    # state, subtracted in place: u = H sigma is uniform, so that is the
    # phase times u's one value on every workspace column.
    marked = np.isin(np.arange(spec.dim), target.marked_indices)
    ideal, _ = phase_tables(np.where(marked, target.phi, 0.0).astype)(dtype)
    entries = []
    for i, out in enumerate(outs[:len(directions)]):
        out[0] -= ideal[i] * u[0]
        entries.append(ResidualEntry(i, spec.eigenphases[i], target.lambdas[i],
                                     bool(marked[i]), float(np.linalg.norm(out))))
    worst = max(e.residual for e in entries)

    sup_res = 0.0
    for coeffs, out in zip(probes, outs[len(directions):]):
        out -= (ideal * coeffs * u[0])[:, None]
        sup_res = max(sup_res, float(np.linalg.norm(out)))

    counters = ComplexityCounters.from_tally(tally, assembly.ancillas)
    return MarkerErrorReport(
        variant=assembly.variant,
        phi=target.phi,
        mu=assembly.mu,
        q_or_nu=assembly.q_or_nu,
        entries=tuple(entries),
        worst_residual=worst,
        superposition_residual=sup_res,
        superposition_within_eigen_max=sup_res <= worst + 1e-10,
        counters=counters,
    )

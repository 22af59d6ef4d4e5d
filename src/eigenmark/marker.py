"""Assembly of the full marking operator and measurement of its deviation
from the ideal selective phase.

The assembled marker is core+ . (1_main x I_Z^phi) . core, where core is
any of the estimation variants (plain, voting tensor, fixed-point level q)
and Z is the workspace subspace that flags "marked".  Deviation is the
Euclidean residual against the ideal marker on eigenstate (x) sigma
inputs, reported per eigendirection plus random-superposition probes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .statevec import (
    LinearOperator,
    SubspaceProjector,
    Tally,
    apply,
    compose,
    embed_work_projector,
    product_state,
)
from .spectral import SpectralUnitary, MarkTarget, build_shifted, ideal_marker
from .pea import WorkspaceLayout, build_pea
from .fpqs import (Q_CAP_DEFAULT, SelectivePhaseSpec, build_fixed_point, check_level,
                   selective_phase)
from .voting import build_h_tensor, majority_projector, require_odd
from .complexity import ComplexityCounters

VARIANTS = ("pea", "voting", "fixed_point")


def assemble_marker(core: LinearOperator, phi: float, zproj: SubspaceProjector,
                    main_dim: int) -> LinearOperator:
    """core+ . (1_main x I_Z^phi) . core; costs two core applications each
    time it is applied."""
    if core.dim != main_dim * zproj.dim:
        raise ValueError(f"core dim {core.dim} != main_dim {main_dim} * {zproj.dim}")
    rotate = selective_phase(SelectivePhaseSpec(embed_work_projector(main_dim, zproj), phi))
    return compose(core.adjoint, rotate, core)


@dataclass(frozen=True, eq=False)
class MarkerAssembly:
    """An assembled marker plus the bookkeeping needed to evaluate it."""

    variant: str
    phi: float
    core: LinearOperator
    operator: LinearOperator
    zproj: SubspaceProjector
    main_dim: int
    mu: int
    q: int | None
    nu: int | None
    ancillas: int

    @property
    def work_dim(self) -> int:
        return self.zproj.dim

    @property
    def q_or_nu(self) -> int | None:
        return self.q if self.q is not None else self.nu


def check_variant(variant: str, q: int | None, nu: int | None, q_cap: int) -> None:
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
        check_level(q, q_cap)
    else:
        if nu is None or q is not None:
            raise ValueError("variant 'voting' takes nu (and not q)")
        require_odd(nu)


def build_assembly(spec: SpectralUnitary, target: MarkTarget, layout: WorkspaceLayout,
                   variant: str, q: int | None = None, nu: int | None = None,
                   q_cap: int = Q_CAP_DEFAULT) -> MarkerAssembly:
    """Construct the chosen variant's core and wrap it into a marker."""
    check_variant(variant, q, nu, q_cap)
    shifted = build_shifted(spec, target)
    pea_op = build_pea(shifted, layout)
    window = layout.z_window()
    if variant == "pea":
        core, zproj, ancillas = pea_op, window, layout.mu
    elif variant == "fixed_point":
        core = build_fixed_point(pea_op, q, spec.dim, window, q_cap=q_cap)
        zproj, ancillas = window, layout.mu
    else:
        core = build_h_tensor(pea_op, nu, layout, spec.dim)
        zproj, ancillas = majority_projector(window, nu), nu * layout.mu
    operator = assemble_marker(core, target.phi, zproj, spec.dim)
    return MarkerAssembly(
        variant=variant, phi=target.phi, core=core, operator=operator,
        zproj=zproj, main_dim=spec.dim, mu=layout.mu, q=q, nu=nu, ancillas=ancillas,
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

    residual_i = || assembled(|psi_i>|sigma>) - (ideal |psi_i>) (x) |sigma> ||.
    Random-superposition residuals can never exceed the eigendirection
    maximum (the marker is block-diagonal across eigendirections); the
    report records whether that held.
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
        return [
            {"direction": e.index, "eigenphase": repr(e.eigenphase),
             "residual": repr(e.residual), "variant": self.variant,
             "mu": self.mu, "q_or_nu": "" if self.q_or_nu is None else self.q_or_nu,
             "N_U": self.counters.n_u, "N_A": self.counters.n_a}
            for e in self.entries
        ]


CSV_COLUMNS = ("direction", "eigenphase", "residual", "variant", "mu", "q_or_nu",
               "N_U", "N_A")


def write_report_json(report: MarkerErrorReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_report_csv(report: MarkerErrorReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in report.csv_rows():
            writer.writerow(row)


def application_counters(assembly: MarkerAssembly) -> ComplexityCounters:
    """Exact counters of one application of the assembled marker.  Tally
    charges per application whatever the state, so any unit vector will do."""
    tally = Tally()
    x = np.zeros(assembly.operator.dim, dtype=complex)
    x[0] = 1.0
    assembly.operator.apply_to(x, tally)
    return ComplexityCounters.from_tally(tally, assembly.ancillas)


def _sigma_vector(work_dim: int, dtype) -> np.ndarray:
    v = np.zeros(work_dim, dtype=dtype)
    v[0] = 1.0
    return v


def evaluate_marker(assembly: MarkerAssembly, spec: SpectralUnitary, target: MarkTarget,
                    n_random: int = 8, seed: int = 0,
                    dtype=np.complex128) -> MarkerErrorReport:
    """Residuals per eigendirection plus n_random Haar-ish superposition
    probes, with the resource counters accumulated over the whole run."""
    tally = Tally()
    work_dim = assembly.work_dim
    sigma = _sigma_vector(work_dim, dtype)
    ideal = ideal_marker(spec, target)
    entries = []
    for i in range(spec.dim):
        marked = i in target.marked_indices
        state = product_state(spec.basis_column(i).astype(dtype), sigma)
        out = apply(assembly.operator, state, "joint", tally)
        phase = np.exp(1j * target.phi) if marked else 1.0
        residual = float(np.linalg.norm(out.amplitudes - phase * state.amplitudes))
        entries.append(ResidualEntry(i, spec.eigenphases[i], target.lambdas[i],
                                     marked, residual))
    worst = max(e.residual for e in entries)

    rng = np.random.default_rng(seed)
    sup_res = 0.0
    for _ in range(n_random):
        main = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
        main = (main / np.linalg.norm(main)).astype(dtype)
        state = product_state(main, sigma)
        out = apply(assembly.operator, state, "joint", tally)
        want = product_state(ideal.apply_to(main), sigma)
        sup_res = max(sup_res, float(np.linalg.norm(out.amplitudes - want.amplitudes)))

    counters = ComplexityCounters.from_tally(tally, assembly.ancillas)
    return MarkerErrorReport(
        variant=assembly.variant,
        phi=assembly.phi,
        mu=assembly.mu,
        q_or_nu=assembly.q_or_nu,
        entries=tuple(entries),
        worst_residual=worst,
        superposition_residual=sup_res,
        superposition_within_eigen_max=sup_res <= worst + 1e-10,
        counters=counters,
    )

"""Unitaries under test, specified by their spectrum.

The operator is given by eigenphases (multiplicities allowed) and an
eigenbasis; nothing is ever constructed from circuits or Hamiltonians.
All phase arithmetic is circular: angles are reduced to (-pi, pi] and
distances are geodesic on the unit circle.

A marking problem consists of a SpectralUnitary (the operator U and its
gap) and a MarkTarget (the phase estimate, its accuracy fraction, and the
marker angle).  Construction validates the separation assumptions; the
shifted operator and the ideal marker are then available as matrix-free
operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statevec import LinearOperator, in_frame, phase_tables, require_int


def wrap_angle(x):
    """Reduce an angle (or array of angles) to (-pi, pi]; values already in
    range pass through bit-exactly."""
    arr = np.asarray(x, dtype=float)
    r = np.remainder(arr + np.pi, 2 * np.pi) - np.pi
    r = np.where(r <= -np.pi, r + 2 * np.pi, r)
    r = np.where((arr > -np.pi) & (arr <= np.pi), arr, r)
    return float(r) if np.isscalar(x) or arr.ndim == 0 else r


def require_finite(x, name: str) -> float:
    """x as a float, rejecting (ValueError) a NaN or an infinity, which no
    phase arithmetic can reduce."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def circle_distance(a, b):
    """Geodesic distance between angles on the unit circle."""
    return np.abs(wrap_angle(np.asarray(a, dtype=float) - b))


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """An n x n unitary drawn from the Haar measure with rng (QR of a
    complex Gaussian matrix, with the phases of R's diagonal divided out)."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@dataclass(frozen=True, eq=False)
class SpectralUnitary:
    """Operator defined by eigenphases, an eigenbasis, and a gap delta.

    eigenbasis None means the computational basis.  delta is the promised
    minimum circle distance between the marked phase and all others; it is
    validated against the actual phases when a MarkTarget is resolved.
    """

    dim: int
    eigenphases: tuple[float, ...]
    eigenbasis: np.ndarray | None = None
    delta: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", require_int(self.dim, "dim"))
        if self.dim < 1:
            raise ValueError("dim must be positive")
        phases = tuple(float(wrap_angle(require_finite(p, f"eigenphase {i}")))
                       for i, p in enumerate(self.eigenphases))
        if len(phases) != self.dim:
            raise ValueError(f"{len(phases)} eigenphases for dim {self.dim}")
        object.__setattr__(self, "eigenphases", phases)
        # The analysis regime is delta << 1 but any separation up to the
        # circle diameter is legal input.
        if not (0.0 < self.delta <= np.pi):
            raise ValueError(f"delta {self.delta!r} outside (0, pi]")
        if self.eigenbasis is not None:
            e = np.array(self.eigenbasis, dtype=complex)
            if e.shape != (self.dim, self.dim):
                raise ValueError(f"eigenbasis shape {e.shape} != ({self.dim}, {self.dim})")
            err = np.abs(e.conj().T @ e - np.eye(self.dim)).max()
            if err > 1e-10:
                raise ValueError(f"eigenbasis is not unitary (deviation {err:.2e})")
            e.setflags(write=False)
            object.__setattr__(self, "eigenbasis", e)

    def basis_column(self, i: int) -> np.ndarray:
        if self.eigenbasis is None:
            col = np.zeros(self.dim, dtype=complex)
            col[i] = 1.0
            return col
        return np.array(self.eigenbasis[:, i])


@dataclass(frozen=True)
class MarkTarget:
    """Resolved marking target: estimate, accuracy, marker angle.

    lambdas[i] = wrap(psi_i - psi_prime); marked_indices collects every
    direction with |lambda| < b*delta (a degenerate marked eigenspace is
    the multiplicity > 1 case).  theta_min = delta/2 is the separation
    threshold the unmarked phases must clear.
    """

    psi: float
    psi_prime: float
    b: float
    phi: float
    theta_min: float
    marked_indices: tuple[int, ...]
    lambdas: tuple[float, ...]

    @classmethod
    def resolve(cls, spec: SpectralUnitary, psi_prime: float, phi: float,
                b: float = 0.05, marked_index: int | None = None) -> "MarkTarget":
        if not (0.0 < b <= 0.25):
            raise ValueError(f"accuracy fraction b={b!r} outside (0, 0.25]")
        psi_prime = wrap_angle(require_finite(psi_prime, "estimate psi_prime"))
        phi = require_finite(phi, "marker angle phi")
        lam = wrap_angle(np.asarray(spec.eigenphases) - psi_prime)
        window = b * spec.delta
        marked = tuple(int(i) for i in np.nonzero(np.abs(lam) < window)[0])
        if not marked:
            raise ValueError(
                f"no eigenphase within b*delta={window!r} of estimate {psi_prime!r}"
            )
        if marked_index is not None:
            marked_index = require_int(marked_index, "declared marked index")
            if not 0 <= marked_index < spec.dim:
                raise ValueError(f"declared marked index {marked_index} outside [0, {spec.dim})")
            if marked_index not in marked:
                raise ValueError(
                    f"declared marked index {marked_index} has |lambda|="
                    f"{abs(lam[marked_index])!r} >= b*delta={window!r}"
                )
        psi = spec.eigenphases[marked[0]]
        for i in marked[1:]:
            if spec.eigenphases[i] != psi:
                raise ValueError(
                    f"two distinct phases {psi!r} and {spec.eigenphases[i]!r} fall inside "
                    "the estimate window; a marked eigenspace must be degenerate"
                )
        theta_min = spec.delta / 2.0
        for i in range(spec.dim):
            if i in marked:
                continue
            if circle_distance(spec.eigenphases[i], psi) <= spec.delta:
                raise ValueError(
                    f"eigenphase {spec.eigenphases[i]!r} violates the gap: circle distance "
                    f"to marked phase {psi!r} is <= delta={spec.delta!r}"
                )
            if abs(lam[i]) <= theta_min:
                raise ValueError(
                    f"eigenphase {spec.eigenphases[i]!r} violates the separation assumption: "
                    f"|lambda|={abs(lam[i])!r} <= theta_min={theta_min!r}"
                )
        return cls(
            psi=float(psi),
            psi_prime=float(psi_prime),
            b=float(b),
            phi=float(phi),
            theta_min=float(theta_min),
            marked_indices=marked,
            lambdas=tuple(float(v) for v in lam),
        )


def _diagonal_in_basis(factor_phases: np.ndarray, basis: np.ndarray | None,
                       cost=()) -> LinearOperator:
    """Operator acting as exp(i*phase_j) on basis direction j."""
    phases = np.asarray(factor_phases, dtype=float)
    tables = phase_tables(phases.astype)
    diagonal = LinearOperator(len(phases), lambda x, _t: tables(x.dtype)[0][:, None] * x,
                              lambda x, _t: tables(x.dtype)[1][:, None] * x, cost,
                              eigensystem=(tuple(float(p) for p in phases), None))
    return in_frame(diagonal, basis, 1)


def unitary_of(spec: SpectralUnitary) -> LinearOperator:
    """The operator U itself; each application charges the U counter."""
    return _diagonal_in_basis(np.asarray(spec.eigenphases), spec.eigenbasis, cost=(("U", 1),))


def check_target(spec: SpectralUnitary, target: MarkTarget) -> None:
    """Reject (ValueError, with resolve's reason) a target that is not
    exactly the one MarkTarget.resolve gives for spec at the target's own
    estimate, marker angle and accuracy: a target resolved against a
    different model, or a model that breaks the marking rules, would
    corrupt measurements."""
    try:
        same = MarkTarget.resolve(spec, target.psi_prime, target.phi, target.b) == target
        reason = "it resolves to another target"
    except ValueError as exc:
        same, reason = False, str(exc)
    if not same:
        raise ValueError(f"target was resolved against a different spectral model: {reason}")


def build_shifted(spec: SpectralUnitary, target: MarkTarget) -> LinearOperator:
    """exp(-i psi') U: eigenphases become lambda_i, eigenbasis unchanged.
    The target must be spec's own (check_target)."""
    check_target(spec, target)
    return _diagonal_in_basis(target.lambdas, spec.eigenbasis, cost=(("U", 1),))


def ideal_marker(spec: SpectralUnitary, target: MarkTarget) -> LinearOperator:
    """Ground-truth selective phase: e^{i phi} on the marked eigenspace."""
    phases = np.zeros(spec.dim)
    phases[list(target.marked_indices)] = target.phi
    return _diagonal_in_basis(phases, spec.eigenbasis)

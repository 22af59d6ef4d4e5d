"""The benchmark's four seeded workloads.

Each workload turns a seed into a fixed task list (one *pass*), builds what
the library needs before timing starts, times only the library calls of a
task, and checks every output afterwards.  The seed changes the values of
the inputs but not the amount of work in a pass: dimensions, eigenbasis
kinds, grid sizes and calibration cost classes are fixed per workload, so
passes made from different seeds take comparable time.

The library is reached only through its public entry points
(`eigenmark.pea`, `eigenmark.marker`, `eigenmark.cli`, plus the model types
in `eigenmark.spectral`), always looked up on the module at call time so
that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os

import numpy as np

from eigenmark import cli, fpqs, marker, pea, spectral

EXTENDED = np.complex256 if hasattr(np, "complex256") else np.complex128

# Seeded models for the marker workloads.  The marked phase sits within
# MARKED_OFFSET of the estimate and every other phase at least
# UNMARKED_MIN away from it, inside the bands the (delta=3.0, b=0.05)
# calibration covers (|lam| <= 0.15 and |lam| >= 1.5), so the fixed
# layouts below are calibrated for every model the seed can produce.
MARKED_OFFSET = 0.09
UNMARKED_MIN = 1.75
MODEL_DELTA = 1.6
MODEL_B = 0.0625


def _haar(rng, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _model(rng, dim: int, haar: bool):
    psi_prime = float(rng.uniform(-np.pi, np.pi))
    phases = [psi_prime + float(rng.uniform(-MARKED_OFFSET, MARKED_OFFSET))]
    for _ in range(dim - 1):
        phases.append(psi_prime + float(rng.choice((-1.0, 1.0)))
                      * float(rng.uniform(UNMARKED_MIN, np.pi)))
    spec = spectral.SpectralUnitary(dim=dim, eigenphases=tuple(phases),
                                    eigenbasis=_haar(rng, dim) if haar else None,
                                    delta=MODEL_DELTA)
    target = spectral.MarkTarget.resolve(spec, psi_prime=psi_prime, phi=np.pi, b=MODEL_B,
                                         marked_index=0)
    return spec, target


def _measured_etas(spec, target, layout, dtype) -> tuple[float, ...]:
    """Per-direction wrong magnitude of one estimation-operator application."""
    op = pea.build_pea(spectral.build_shifted(spec, target), layout)
    report = pea.measure_eta(op, spec, target, layout, dtype=dtype)
    return tuple(e.eta for e in report.entries)


class Workload:
    """One pass is `tasks`; `run` is the timed library work of a task."""

    name = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tasks: list = []

    def prepare(self) -> None:
        """Build the operators the tasks use (set-up, before timing)."""

    def warmup(self) -> None:
        """One untimed task, so lazy tables and numpy plans are filled."""
        self.run(self.tasks[0])

    def expect(self) -> None:
        """Reference values for `check`, computed after set-up, untimed."""

    def run(self, task):
        raise NotImplementedError

    def check(self, task, out) -> bool:
        raise NotImplementedError

    def tally(self, out) -> tuple[int, int]:
        """(N_U, N_P) from the task's own reports."""
        return 0, 0

    def cells(self, out) -> int:
        """Sweep cells the task produced."""
        return 0


class Calibrate(Workload):
    """Cold calibration, then the measured eta of the calibrated workspace
    on the worst-case verification model."""

    name = "calibrate"
    PINNED = {(0.4, 0.05): (14, 370), (3.0, 0.05): (11, 330)}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        # Calibration cost jumps with the mu and window it settles on (1.9 s
        # to 8.7 s per pair over the full delta in [0.4, 3.0], b in
        # [0.03, 0.1] box on a 2-core host), so the seeded pair comes from a
        # sub-box where every sampled pair landed on mu=11 at similar cost.
        seeded = (float(rng.uniform(2.2, 2.8)), float(rng.uniform(0.045, 0.065)))
        self.tasks = list(self.PINNED) + [seeded]

    def warmup(self):
        # A full cold calibration costs seconds and fills no lazy table;
        # the same path capped at a small mu warms numpy in milliseconds.
        calib = pea.calibrate_workspace(3.0, 0.05, mu_cap=4)
        self._verify(calib)

    def _verify(self, calib):
        spec, target = pea.verification_model(calib.delta, calib.b, calib.lam_marked,
                                              calib.lam_unmarked)
        layout = calib.layout()
        op = pea.build_pea(spectral.build_shifted(spec, target), layout)
        return pea.measure_eta(op, spec, target, layout, dtype=EXTENDED)

    def run(self, task):
        calib = pea.calibrate_workspace(*task)
        return calib, self._verify(calib)

    def check(self, task, out):
        calib, report = out
        pinned = self.PINNED.get(task)
        return (calib.converged
                and (pinned is None or (calib.mu, calib.window) == pinned)
                and abs(report.eta - calib.eta) <= 1e-9)


class Recursion(Workload):
    """Level-2 pi/3 recursion in extended precision at the (delta=3.0,
    b=0.05) calibrated layout, given explicitly."""

    name = "recursion"
    LAYOUT = (11, 330)
    # Worst-case offsets calibrate_workspace(3.0, 0.05) reports for LAYOUT.
    WORST_CASE = (3.0, 0.05, 0.1487962892185004, 1.50176615759041)
    Q = 2
    N_RANDOM = 1
    # (main dimension, Haar eigenbasis) of each task in a pass.  Half the
    # tasks have dimension 3, so the median task time falls inside one
    # cost class rather than on the step between two.
    SHAPES = ((2, True), (3, False), (3, True), (4, False))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        self.models = [_model(rng, dim, haar) for dim, haar in self.SHAPES]
        self.layout = pea.WorkspaceLayout(*self.LAYOUT)

    def prepare(self):
        self.tasks = [(i, spec, target,
                       marker.build_assembly(spec, target, self.layout, "fixed_point", q=self.Q))
                      for i, (spec, target) in enumerate(self.models)]

    def expect(self):
        # The calibrated eta of the layout bounds every direction's eta,
        # since all model phases lie in the calibrated bands.
        spec, target = pea.verification_model(*self.WORST_CASE)
        self.eta = max(_measured_etas(spec, target, self.layout, EXTENDED))
        # The eigenbasis reaches the library in complex128, so it is
        # unitary only to about 1e-16 in extended precision, which leaves
        # the residuals of a Haar model near 1e-14 off the exact ones, as
        # large as the C2 law itself.  So the law is checked on a twin with
        # the same phases in the computational basis, and the Haar model's
        # residuals against the twin's: every estimation-operator
        # application rotates by the basis twice, which bounds how far
        # they can drift apart.
        self.twins = []
        self.basis_error = []
        for spec, target in self.models:
            if spec.eigenbasis is None:
                self.twins.append(None)
                self.basis_error.append(0.0)
                continue
            twin = dataclasses.replace(spec, eigenbasis=None)
            assembly = marker.build_assembly(twin, target, self.layout, "fixed_point", q=self.Q)
            self.twins.append(self.run((None, twin, target, assembly)))
            e = spec.eigenbasis.astype(EXTENDED)
            self.basis_error.append(float(np.linalg.norm(e.conj().T @ e - np.eye(spec.dim))))

    def run(self, task):
        _i, spec, target, assembly = task
        return marker.evaluate_marker(assembly, spec, target, n_random=self.N_RANDOM,
                                      seed=self.seed, dtype=EXTENDED)

    def check(self, task, report):
        i, spec, target, _assembly = task
        eta = self.eta
        n_p = 2 * 9 ** self.Q * (spec.dim + self.N_RANDOM)
        if not (eta <= fpqs.ETA_REGIME and report.counters.n_p == n_p
                and report.counters.n_u == n_p * 2 ** self.layout.mu
                and report.superposition_within_eigen_max):
            return False
        # C2 law: the marker residual is |1 - e^{i phi}| times the wrong
        # magnitude of the level-q core.
        pred = fpqs.predict_schedule(self.Q, eta)
        slack = 1.0 + 10.0 * eta * eta
        scale = abs(1.0 - np.exp(1j * target.phi))
        rounding = 2 * 2 * 9 ** self.Q * self.basis_error[i]
        exact = (self.twins[i] or report).entries
        for e, t in zip(report.entries, exact, strict=True):
            law = pred.marked_magnitude if t.marked else pred.unmarked_magnitude
            if not (t.residual / scale <= law * slack
                    and abs(e.residual - t.residual) / scale <= rounding):
                return False
        return True

    def tally(self, report):
        return report.counters.n_u, report.counters.n_p


class Voting(Workload):
    """Three-register majority voting at mu=5 (joint dimension 65,536)."""

    name = "voting"
    LAYOUT = (5, 5)  # best_window(5, 3.0, 0.05).window == 5
    NU = 3
    N_RANDOM = 2
    SHAPES = ((2, True), (2, False)) * 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        self.models = [_model(rng, dim, haar) for dim, haar in self.SHAPES]
        self.layout = pea.WorkspaceLayout(*self.LAYOUT)

    def prepare(self):
        self.tasks = [(i, spec, target,
                       marker.build_assembly(spec, target, self.layout, "voting", nu=self.NU))
                      for i, (spec, target) in enumerate(self.models)]

    def expect(self):
        self.etas = [_measured_etas(spec, target, self.layout, np.complex128)
                     for spec, target in self.models]

    def run(self, task):
        _i, spec, target, assembly = task
        return marker.evaluate_marker(assembly, spec, target, n_random=self.N_RANDOM,
                                      seed=self.seed)

    def check(self, task, report):
        i, spec, target, _assembly = task
        n_p = 2 * self.NU * (spec.dim + self.N_RANDOM)
        if not (report.counters.n_p == n_p
                and report.counters.n_u == n_p * 2 ** self.layout.mu
                and report.superposition_within_eigen_max):
            return False
        # On an eigenstate the registers are independent, so the wrong
        # (losing-majority) amplitude is a binomial tail in eta_i^2.
        scale = abs(1.0 - np.exp(1j * target.phi))
        for e, eta in zip(report.entries, self.etas[i]):
            p = eta * eta
            tail = sum(math.comb(self.NU, k) * p ** k * (1 - p) ** (self.NU - k)
                       for k in range(self.NU // 2 + 1, self.NU + 1))
            if abs(e.residual - scale * math.sqrt(tail)) > 1e-9:
                return False
        return True

    def tally(self, report):
        return report.counters.n_u, report.counters.n_p


class Sweep(Workload):
    """`eigenmark sweep` in worst-case mode over a seeded delta axis and
    q in {0, 1, 2}, run in-process through `cli.main`."""

    name = "sweep"
    MU = 9
    QS = (0, 1, 2)
    N_RANDOM = 4
    B = 0.05

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        # best_window's cost grows about linearly with delta, so the two
        # deltas are mirrored about 1.7 to keep the pass cost seed-free.
        low = float(rng.uniform(0.4, 1.7))
        self.deltas = [low, 3.4 - low]
        self.config = os.path.join(workdir, "sweep.json")
        self.out = os.path.join(workdir, "sweep")
        self.tasks = ["sweep"]

    def prepare(self):
        # cli reads worst_case["delta"] even when a delta axis overrides it.
        doc = {"variant": "fixed_point", "mu": self.MU, "n_random": self.N_RANDOM,
               "worst_case": {"b": self.B, "phi": math.pi, "delta": self.deltas[0]},
               "grid": {"delta": self.deltas, "q": list(self.QS)}}
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def warmup(self):
        self.reference = self.run(self.tasks[0])

    def run(self, _task):
        argv = ["sweep", "--config", self.config, "--out", self.out, "--jobs", "1",
                "--seed", str(self.seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        with open(os.path.join(self.out, "sweep.csv"), "rb") as fh:
            return code, fh.read()

    def rows(self, out):
        return list(csv.DictReader(io.StringIO(out[1].decode("utf-8"))))

    def check(self, _task, out):
        code, data = out
        rows = self.rows(out)
        if code != 0 or data != self.reference[1] or len(rows) != len(self.deltas) * len(self.QS):
            return False
        for row in rows:
            n_p = 2 * 9 ** int(row["q"]) * (2 + self.N_RANDOM)
            if not (int(row["N_P"]) == n_p and int(row["N_U"]) == n_p * 2 ** self.MU
                    and float(row["superposition_residual"])
                    <= float(row["worst_residual"]) + 1e-10):
                return False
        return True

    def tally(self, out):
        rows = self.rows(out)
        return sum(int(r["N_U"]) for r in rows), sum(int(r["N_P"]) for r in rows)

    def cells(self, out):
        return len(self.rows(out))


WORKLOADS = {w.name: w for w in (Calibrate, Recursion, Voting, Sweep)}

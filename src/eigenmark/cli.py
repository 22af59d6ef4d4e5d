"""Batch driver: configuration ingestion, experiment orchestration, result
emission.

All configuration comes from a single JSON document (never environment
variables), and given the same config and seed the emitted files are
byte-identical: rows are sorted by cell key regardless of scheduling, JSON
is dumped with sorted keys, and floats are written with repr.  Exit codes:
0 success, 1 property or calibration failure, 2 usage/config error.

Subcommands:
  calibrate   write the calibration result for (delta, b)
  simulate    one marker evaluation -> JSON + CSV report
  sweep       grid over mu/q/nu/delta -> CSV, optionally parallel
  compare     cost-model table over a (delta, eps) grid -> CSV
  audit       run the full invariant suite; nonzero exit on any failure
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict

import numpy as np

from . import audit as audit_mod
from . import complexity, marker, pea, spectral, voting
from .statevec import EXTENDED, share_cores

SWEEP_COLUMNS = ("variant", "delta", "mu", "window", "q", "nu", "phi", "eta",
                 "worst_residual", "superposition_residual", "N_U", "N_A", "N_P")


class ConfigError(Exception):
    pass


def _load_config(path) -> dict:
    if path is None:
        raise ConfigError("this subcommand requires --config PATH")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def _integer(value, where: str) -> int:
    """value as an int: a JSON integer, or a number with an integral value.
    A fraction is not truncated and a bool is not a count: both, and
    anything else, are a ConfigError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{where} must be an integer, got {value!r}")


def _require(doc: dict, key, kind, where="config"):
    if key not in doc:
        raise ConfigError(f"{where} is missing required key {key!r}")
    value = doc[key]
    if kind is int:
        return _integer(value, f"{where}[{key!r}]")
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ConfigError(f"{where}[{key!r}] must be {kind.__name__}, got {type(value).__name__}")
    return value


def _option(doc: dict, key, default, kind):
    """doc[key], or default when absent, converted by kind (int through
    _integer); a value kind cannot convert is a ConfigError."""
    if kind is int:
        return _integer(doc.get(key, default), f"config[{key!r}]")
    try:
        return kind(doc.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config[{key!r}] must be {kind.__name__}: {exc}") from exc


_DTYPES = {np.dtype(t).name: t for t in (np.complex128, EXTENDED)}


def _probe_count(doc: dict, default: int) -> int:
    """The n_random option: how many superposition probes, at least 0."""
    n_random = _option(doc, "n_random", default, int)
    if n_random < 0:
        raise ConfigError(f"config['n_random'] must be nonnegative, got {n_random!r}")
    return n_random


def _dtype_from(doc: dict):
    name = doc.get("dtype", "complex128")
    if not isinstance(name, str) or name not in _DTYPES:
        raise ConfigError(f"unknown dtype {name!r}; expected one of {sorted(_DTYPES)}")
    return _DTYPES[name]


def _model_from(doc: dict):
    if ("model" in doc) == ("model_path" in doc):
        raise ConfigError("give exactly one of 'model' (inline) or 'model_path'")
    try:
        if "model" in doc:
            return spectral.load_model(_require(doc, "model", dict))
        return spectral.load_model_file(doc["model_path"])
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"invalid spectral model: {exc}") from exc


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


# --- calibrate ---------------------------------------------------------------

def _cmd_calibrate(args) -> int:
    cfg = _load_config(args.config)
    delta = _require(cfg, "delta", float)
    b = _require(cfg, "b", float)
    options = {"eta_target": _option(cfg, "eta_target", pea.ETA_TARGET_DEFAULT, float),
               "mu_cap": _option(cfg, "mu_cap", 20, int)}
    try:
        result = pea.calibrate_workspace(delta, b, **options)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    path = os.path.join(_outdir(args), "calibration.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(result), fh, indent=2, sort_keys=True)
        fh.write("\n")
    status = "converged" if result.converged else "FAILED (best shown)"
    print(f"calibration {status}: mu={result.mu} window={result.window} "
          f"eta={result.eta!r} (target {result.eta_target!r}) -> {path}")
    return 0 if result.converged else 1


# --- simulate ----------------------------------------------------------------

def _resolve_layout(cfg, spec, target, variant_args):
    """The calibrated layout, or the configured mu with the configured
    window or the best one; a voting layout is checked against the tensor
    guard before any window search."""
    try:
        if cfg.get("calibrate"):
            eta_target = _option(cfg, "eta_target", pea.ETA_TARGET_DEFAULT, float)
            calib = pea.calibrate_workspace(spec.delta, target.b, eta_target=eta_target)
            if not calib.converged:
                raise ConfigError(
                    f"calibration did not reach eta target; best eta={calib.eta!r} at "
                    f"mu={calib.mu}")
            mu, window = calib.mu, calib.window
        else:
            mu = pea.WorkspaceLayout(_require(cfg, "mu", int), 0).mu  # checks mu's range
            window = _integer(cfg["window"], "config['window']") if "window" in cfg else None
        _check_joint_dim(variant_args, spec.dim, mu)
        if window is None:
            window = pea.best_window(mu, spec.delta, target.b).window
        return pea.WorkspaceLayout(mu, window)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _check_joint_dim(variant_args: dict, main_dim: int, mu: int) -> None:
    """Reject (ValueError) a voting assembly whose joint dimension is over
    the tensor guard."""
    if variant_args["variant"] == "voting":
        voting.check_joint_dim(main_dim, 2 ** mu, variant_args["nu"])


def _assembly_args(cfg, q, nu) -> dict:
    """build_assembly's variant arguments for one (q, nu), checked before
    any work."""
    variant = _require(cfg, "variant", str)
    try:
        args = {"variant": variant, "q": None if q is None else _integer(q, "q"),
                "nu": None if nu is None else _integer(nu, "nu")}
        marker.check_variant(**args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return args


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    spec, target = _model_from(cfg)
    variant_args = _assembly_args(cfg, cfg.get("q"), cfg.get("nu"))
    dtype = _dtype_from(cfg)
    n_random = _probe_count(cfg, 8)
    layout = _resolve_layout(cfg, spec, target, variant_args)
    try:
        assembly = marker.build_assembly(spec, target, layout, **variant_args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = marker.evaluate_marker(
        assembly, spec, target,
        n_random=n_random,
        seed=args.seed,
        dtype=dtype,
    )
    out = _outdir(args)
    marker.write_report_json(report, os.path.join(out, "report.json"))
    marker.write_report_csv(report, os.path.join(out, "report.csv"))
    print(f"simulate: variant={report.variant} mu={report.mu} "
          f"q_or_nu={report.q_or_nu} worst_residual={report.worst_residual!r}")
    return 0


# --- sweep -------------------------------------------------------------------

def _sweep_cells(cfg, seed) -> list[dict]:
    """Every cell of the grid, each checked before any cell runs."""
    axes = _require(cfg, "grid", dict)
    unknown = set(axes) - {"mu", "q", "nu", "delta"}
    if unknown:
        raise ConfigError(f"unknown sweep axes {sorted(unknown)}")
    synthetic = "worst_case" in cfg
    if synthetic == ("model" in cfg or "model_path" in cfg):
        raise ConfigError("give exactly one of 'worst_case' or a spectral model")
    if "delta" in axes and not synthetic:
        raise ConfigError("a delta axis requires 'worst_case' mode (a fixed model "
                          "pins its own delta)")
    if synthetic:
        wc = _require(cfg, "worst_case", dict)
        b = _require(wc, "b", float, "worst_case")
        phi = _require(wc, "phi", float, "worst_case")
        if "delta" in axes:
            deltas = axes["delta"]
        else:
            deltas = [_require(wc, "delta", float, "worst_case")]
        model = None
    else:
        b = phi = None
        deltas = [None]
        model = _model_from(cfg)
    dtype = _dtype_from(cfg)
    mus = axes.get("mu", [cfg.get("mu")])
    if mus == [None]:
        raise ConfigError("sweep needs 'mu' as an axis or a scalar config key")
    qs = axes.get("q", [cfg.get("q")])
    nus = axes.get("nu", [cfg.get("nu")])
    n_random = _probe_count(cfg, 4)
    # Worst-case cells run the verification model.
    main_dim = pea.VERIFICATION_DIM if model is None else model[0].dim
    try:
        if synthetic:
            spectral.require_finite(phi, "worst_case phi")
        cells = [{
            "delta": None if delta is None else float(delta),
            "mu": pea.WorkspaceLayout(_integer(mu, "mu"), 0).mu,  # checks mu's range
            "b": b, "phi": phi, "model": model,
            "variant_args": _assembly_args(cfg, q, nu),
            "n_random": n_random, "dtype": dtype, "seed": seed,
        } for delta, mu, q, nu in itertools.product(deltas, mus, qs, nus)]
        for cell in cells:
            pea.check_search(*_search_band(cell))
            _check_joint_dim(cell["variant_args"], main_dim, cell["mu"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return cells


def _search_band(cell: dict) -> tuple[float, float]:
    """(delta, b) of a cell's window search: the model's own, or the
    worst-case configuration's."""
    if cell["model"] is not None:
        return cell["model"][0].delta, cell["model"][1].b
    return cell["delta"], cell["b"]


def _run_cells(cells: list[dict]) -> list[dict]:
    """Rows of cells that share (delta, mu), and so share one window
    search, one model and one measured eta (b is the same in every cell)."""
    first = cells[0]
    delta, b = _search_band(first)
    choice = pea.best_window(first["mu"], delta, b)
    try:
        spec, target = first["model"] or pea.verification_model(
            delta, b, choice.lam_marked, choice.lam_unmarked, phi=first["phi"])
    except ValueError as exc:
        raise ConfigError(f"no worst-case model at delta={delta!r}, b={b!r}: {exc}") from exc
    layout = pea.WorkspaceLayout(first["mu"], choice.window)
    eta = pea.measure_eta(pea.build_pea(spectral.build_shifted(spec, target), layout),
                          spec, target, layout).eta
    return [_run_cell(cell, delta, spec, target, layout, eta) for cell in cells]


def _run_cell(cell: dict, delta: float, spec, target, layout, eta: float) -> dict:
    assembly = marker.build_assembly(spec, target, layout, **cell["variant_args"])
    report = marker.evaluate_marker(assembly, spec, target,
                                    n_random=cell["n_random"], seed=cell["seed"],
                                    dtype=cell["dtype"])
    q, nu = cell["variant_args"]["q"], cell["variant_args"]["nu"]
    return {
        "variant": assembly.variant,
        "delta": repr(float(delta)),
        "mu": cell["mu"],
        "window": layout.window,
        "q": "" if q is None else q,
        "nu": "" if nu is None else nu,
        "phi": repr(float(target.phi)),
        "eta": repr(eta),
        "worst_residual": repr(report.worst_residual),
        "superposition_residual": repr(report.superposition_residual),
        "N_U": report.counters.n_u,
        "N_A": report.counters.n_a,
        "N_P": report.counters.n_p,
    }


def _cell_key(row: dict):
    return (row["variant"], row["delta"], row["mu"], str(row["q"]), str(row["nu"]))


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = _load_config(args.config)
    groups: dict = {}
    for cell in _sweep_cells(cfg, args.seed):
        key = (cell["delta"], cell["mu"])
        groups.setdefault(key, []).append(cell)
    # A fork-started pool starts all its workers at the first submit, so
    # ask for no more than there are groups to run.
    workers = min(args.jobs, len(groups))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=share_cores,
                                 initargs=(workers,)) as pool:
            results = list(pool.map(_run_cells, groups.values()))
    else:
        results = [_run_cells(group) for group in groups.values()]
    rows = sorted((row for group in results for row in group), key=_cell_key)
    out = _outdir(args)
    path = os.path.join(out, "sweep.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    print(f"sweep: {len(rows)} cells -> {path}")
    return 0


# --- compare -----------------------------------------------------------------

def _measured_cell(delta: float, eps: float, b: float, mu_limit: int) -> dict | None:
    calib = pea.calibrate_workspace(delta, b)
    if not calib.converged or calib.mu > mu_limit:
        return None
    eta = min(calib.eta, complexity.ETA_REGIME)
    q = complexity.plan_recursion(eta, eps)
    spec, target = pea.verification_model(delta, b, calib.lam_marked, calib.lam_unmarked)
    layout = calib.layout()
    assembly = marker.build_assembly(spec, target, layout, "fixed_point", q=q)
    counters = marker.application_counters(assembly)
    return {"variant": "fixed_point", "delta": delta, "eps": eps,
            "mu": layout.mu, "q": q, "nu": None,
            "n_u": counters.n_u, "n_a": counters.n_a, "n_p": counters.n_p}


def _cmd_compare(args) -> int:
    cfg = _load_config(args.config)
    b = _option(cfg, "b", 0.05, float)
    mu_limit = _option(cfg, "mu_limit", 16, int)
    try:
        delta_grid = [float(d) for d in _require(cfg, "delta_grid", list)]
        eps_grid = [float(e) for e in _require(cfg, "eps_grid", list)]
        pairs = [(float(d), float(e)) for d, e in cfg.get("measured_cells", [])]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grids and measured_cells must hold numbers: {exc}") from exc
    measured = []
    for delta, eps in pairs:
        try:
            cell = _measured_cell(delta, eps, b, mu_limit)
        except ValueError as exc:
            raise ConfigError(f"measured cell ({delta!r}, {eps!r}): {exc}") from exc
        if cell is not None:
            measured.append(cell)
    try:
        rows = complexity.tabulate(delta_grid, eps_grid, measured)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _outdir(args)
    path = os.path.join(out, "compare.csv")
    complexity.write_table_csv(rows, path)
    print(f"compare: {len(rows)} rows ({len(measured)} measured cells) -> {path}")
    return 0


# --- audit -------------------------------------------------------------------

def _cmd_audit(args) -> int:
    results = audit_mod.run_audit(seed=args.seed)
    text = audit_mod.format_results(results)
    out = _outdir(args)
    with open(os.path.join(out, "audit.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(os.path.join(out, "audit.json"), "w", encoding="utf-8") as fh:
        json.dump([{"name": r.name, "ok": bool(r.ok), "detail": r.detail}
                   for r in results], fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(text)
    return 0 if all(r.ok for r in results) else 1


# --- entry point -------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=None,
                        help="JSON configuration document")
    common.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: current)")
    common.add_argument("--jobs", metavar="N", type=int, default=1,
                        help="parallel workers for sweep cells")
    common.add_argument("--seed", metavar="N", type=int, default=0,
                        help="random seed for superposition probes")
    parser = argparse.ArgumentParser(
        prog="eigenmark",
        description="eigenstate-marking simulations with exact resource accounting")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("calibrate", parents=[common],
                   help="calibrate the workspace size for (delta, b)").set_defaults(
        func=_cmd_calibrate)
    sub.add_parser("simulate", parents=[common],
                   help="one marker evaluation -> JSON/CSV report").set_defaults(
        func=_cmd_simulate)
    sub.add_parser("sweep", parents=[common],
                   help="grid over mu/q/nu/delta -> CSV").set_defaults(func=_cmd_sweep)
    sub.add_parser("compare", parents=[common],
                   help="cost-model comparison table -> CSV").set_defaults(
        func=_cmd_compare)
    sub.add_parser("audit", parents=[common],
                   help="run the invariant suite").set_defaults(func=_cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

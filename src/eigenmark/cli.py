"""Batch driver: configuration ingestion, experiment orchestration, result
emission.

All configuration comes from a single JSON document (never environment
variables), read through the subcommand's key table in CONFIG_KEYS; a
spectral model, inline or in its model_path file, is read through the same
table (MODEL_KEYS) by the same function (_read).  Given
the same config and seed the emitted files are byte-identical: rows are
sorted by cell key regardless of scheduling, and every JSON or CSV file
goes through one of two writers here (_write_json, _write_csv), so JSON is
dumped with indent 2 and sorted keys, and a CSV cell is empty for None and
repr for a float (_cell).  The one other file, audit.txt, _cmd_audit
writes with its own open: the same text the audit prints.  Exit codes:
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
import difflib
import functools
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict

import numpy as np

from . import complexity, marker, pea, spectral, voting
from .statevec import AMPLITUDE_DTYPES, share_cores

SWEEP_COLUMNS = ("variant", "delta", "mu", "window", "q", "nu", "phi", "eta",
                 "worst_residual", "superposition_residual", "N_U", "N_A", "N_P")


class ConfigError(Exception):
    pass


def _json_file(path, what: str):
    """The JSON document in the file at path (a config or a model)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _load_config(args) -> dict:
    """The --config document, read through the subcommand's key table."""
    if args.config is None:
        raise ConfigError("this subcommand requires --config PATH")
    return _read(_json_file(args.config, "config"), CONFIG_KEYS[args.command])


def _integer(value, where: str) -> int:
    """value as an int: a JSON integer, or a number with an integral value.
    A fraction is not truncated and a bool is not a count: both, and
    anything else, are a ConfigError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{where} must be an integer, got {value!r}")


def _count(value, where: str) -> int:
    """A nonnegative integer, as _integer reads it."""
    count = _integer(value, where)
    if count < 0:
        raise ConfigError(f"{where} must be nonnegative, got {count!r}")
    return count


def _number(value, where: str) -> float:
    """value as a float: any JSON number but a bool (not read as 1 or 0)."""
    if isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)
                                    and abs(value) <= sys.float_info.max):
        return float(value)
    raise ConfigError(f"{where} must be a number, got {value!r}")


def _instance(cls, what: str):
    """The kind of a JSON value that is a cls, read as it is."""
    def read(value, where: str):
        if not isinstance(value, cls):
            raise ConfigError(f"{where} must be {what}, got {value!r}")
        return value
    return read


_text = _instance(str, "a string")
_flag = _instance(bool, "true or false")
_list = _instance(list, "a list")
_object = _instance(dict, "a JSON object")


def _entries(kind):
    """The kind of a JSON array whose every entry kind reads."""
    def read(value, where: str) -> list:
        return [kind(entry, f"{where}[{i}]") for i, entry in enumerate(_list(value, where))]
    return read


def _pair(first: str, second: str):
    """The kind of a [first, second] pair of numbers."""
    def read(value, where: str) -> list[float]:
        pair = _entries(_number)(value, where)
        if len(pair) != 2:
            raise ConfigError(f"{where} must be a [{first}, {second}] pair, got {value!r}")
        return pair
    return read


def _one_of(choices: dict):
    """The kind of a name that choices maps to its value."""
    def read(value, where: str):
        if not isinstance(value, str) or value not in choices:
            raise ConfigError(f"{where} must be one of {sorted(choices)}, got {value!r}")
        return choices[value]
    return read


def _basis(value, where: str):
    """An eigenbasis: "computational" (None), or n rows of n [re, im] pairs
    (rows of complex numbers; SpectralUnitary checks n against dim)."""
    if value == "computational":
        return None
    rows = _entries(_entries(_pair("re", "im")))(value, where) if isinstance(value, list) else ()
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ConfigError(f'{where} must be "computational" or n rows of n [re, im] pairs, '
                          f"got {value!r}")
    return [[complex(re, im) for re, im in row] for row in rows]


REQUIRED = object()  # the default of a key that must be given

_DTYPES = {np.dtype(t).name: t for t in AMPLITUDE_DTYPES}
# A spectral model: the operator by its spectrum, and the marking target.
MODEL_KEYS = {"dim": (_integer, REQUIRED), "eigenphases": (_entries(_number), REQUIRED),
              "eigenbasis": (_basis, None), "delta": (_number, REQUIRED),
              "target": ({"psi_prime": (_number, REQUIRED), "phi": (_number, REQUIRED),
                          "b": (_number, 0.05), "marked_index": (_integer, None)}, REQUIRED)}
# The keys simulate and sweep share.
_MARKER_KEYS = {"model": (MODEL_KEYS, None), "model_path": (_text, None),
                "variant": (_text, REQUIRED), "q": (_integer, None), "nu": (_integer, None),
                "mu": (_integer, None), "dtype": (_one_of(_DTYPES), np.complex128)}

# Every key each subcommand reads: key -> (kind, default), where a kind
# reads one JSON value or raises ConfigError, a dict kind is a nested
# table, and a default of None stands for an absent key.
CONFIG_KEYS = {
    "calibrate": {"delta": (_number, REQUIRED), "b": (_number, REQUIRED),
                  "eta_target": (_number, pea.ETA_TARGET_DEFAULT), "mu_cap": (_integer, 20)},
    "simulate": {**_MARKER_KEYS, "window": (_integer, None),
                 "n_random": (_count, 8), "calibrate": (_flag, False),
                 "eta_target": (_number, pea.ETA_TARGET_DEFAULT)},
    "sweep": {**_MARKER_KEYS, "n_random": (_count, 4),
              "worst_case": ({"b": (_number, REQUIRED), "phi": (_number, REQUIRED),
                              "delta": (_number, None)}, None),
              "grid": ({"mu": (_entries(_integer), None), "q": (_entries(_integer), None),
                        "nu": (_entries(_integer), None), "delta": (_entries(_number), None)},
                       REQUIRED)},
    "compare": {"b": (_number, 0.05), "mu_limit": (_integer, 16),
                "delta_grid": (_entries(_number), REQUIRED),
                "eps_grid": (_entries(_number), REQUIRED),
                "measured_cells": (_entries(_pair("delta", "eps")), ())},
}


def _read(doc, table: dict, where: str = "config") -> dict:
    """Every key of table, read from doc by its kind or set to its default.
    An unknown key, a missing required key or a value its kind rejects is
    a ConfigError; null is no kind's value."""
    for key in _object(doc, where):
        if key not in table:
            nearest = difflib.get_close_matches(key, list(table), n=1, cutoff=0)[0]
            raise ConfigError(f"unknown key {key!r} in {where}; nearest known key is {nearest!r}")
    values = {}
    for key, (kind, default) in table.items():
        if key not in doc:
            if default is REQUIRED:
                raise ConfigError(f"{where} is missing required key {key!r}")
            values[key] = default
        elif isinstance(kind, dict):
            values[key] = _read(doc[key], kind, f"{where}[{key!r}]")
        else:
            values[key] = kind(doc[key], f"{where}[{key!r}]")
    return values


def _model_from(cfg: dict):
    """(SpectralUnitary, MarkTarget) of the inline model or the model_path
    file, both read through MODEL_KEYS."""
    if (cfg["model"] is None) == (cfg["model_path"] is None):
        raise ConfigError("give exactly one of 'model' (inline) or 'model_path'")
    model = cfg["model"] or _read(_json_file(cfg["model_path"], "model"), MODEL_KEYS,
                                  cfg["model_path"])
    try:
        spec = spectral.SpectralUnitary(**{key: value for key, value in model.items()
                                           if key != "target"})
        return spec, spectral.MarkTarget.resolve(spec, **model["target"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid spectral model: {exc}") from exc


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _cell(value) -> str:
    """One CSV cell: None is empty, a float is its repr, anything else its
    str."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, columns, rows) -> None:
    """A header of columns, then each row's values in that order, as _cell
    formats them."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_cell(row[c]) for c in columns] for row in rows)


# --- calibrate ---------------------------------------------------------------

def _cmd_calibrate(args) -> int:
    cfg = _load_config(args)
    try:
        result = pea.calibrate_workspace(cfg["delta"], cfg["b"], eta_target=cfg["eta_target"],
                                         mu_cap=cfg["mu_cap"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    path = os.path.join(_outdir(args), "calibration.json")
    _write_json(path, asdict(result))
    status = "converged" if result.converged else "FAILED (best shown)"
    print(f"calibration {status}: mu={result.mu} window={result.window} "
          f"eta={result.eta!r} (target {result.eta_target!r}) -> {path}")
    return 0 if result.converged else 1


# --- simulate ----------------------------------------------------------------

def _resolve_layout(cfg, spec, target, variant_args):
    """The calibrated layout, which a configured mu or window contradicts,
    or the configured mu with the configured window or the best one; the
    variant is checked before any calibration, and a voting layout against
    the tensor guard before any window search."""
    try:
        marker.check_variant(**variant_args)
        if cfg["calibrate"]:
            given = [key for key in ("mu", "window") if cfg[key] is not None]
            if given:
                raise ConfigError(f'"calibrate": true chooses mu and window, but the config '
                                  f'also gives {" and ".join(map(repr, given))}')
            calib = pea.calibrate_workspace(spec.delta, target.b, eta_target=cfg["eta_target"])
            if not calib.converged:
                raise ConfigError(
                    f"calibration did not reach eta target; best eta={calib.eta!r} at "
                    f"mu={calib.mu}")
            mu, window = calib.mu, calib.window
        elif cfg["mu"] is None:
            raise ConfigError("config is missing required key 'mu' (or \"calibrate\": true)")
        else:
            mu, window = cfg["mu"], cfg["window"]
        _check_cell(variant_args, spec.dim, mu)
        if window is None:
            window = pea.best_window(mu, spec.delta, target.b).window
        return pea.WorkspaceLayout(mu, window)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _check_cell(variant_args: dict, main_dim: int, mu: int) -> None:
    """Reject (TypeError, ValueError) a mu out of range, or a voting
    assembly whose joint dimension is over the tensor guard: neither
    forms the power it bounds."""
    pea.WorkspaceLayout(mu, 0)
    if variant_args["variant"] == "voting":
        voting.check_joint_dim(main_dim, 2 ** mu, variant_args["nu"])


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    spec, target = _model_from(cfg)
    variant_args = {key: cfg[key] for key in ("variant", "q", "nu")}
    layout = _resolve_layout(cfg, spec, target, variant_args)
    try:
        assembly = marker.build_assembly(spec, target, layout, **variant_args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = marker.evaluate_marker(assembly, spec, target, n_random=cfg["n_random"],
                                    seed=args.seed, dtype=cfg["dtype"])
    out = _outdir(args)
    _write_json(os.path.join(out, "report.json"), report.to_json_dict())
    _write_csv(os.path.join(out, "report.csv"), marker.CSV_COLUMNS, report.csv_rows())
    print(f"simulate: variant={report.variant} mu={report.mu} "
          f"q_or_nu={report.q_or_nu} worst_residual={report.worst_residual!r}")
    return 0


# --- sweep -------------------------------------------------------------------

def _sweep_plan(cfg: dict, seed: int) -> tuple[dict, list[tuple[float, int]]]:
    """The settings every cell shares, and the (delta, mu) groups, each of
    which runs every (q, nu) cell.  Every cell is checked before any group
    runs."""
    axes, band, model = cfg["grid"], cfg["worst_case"], None
    if (band is None) == (cfg["model"] is None and cfg["model_path"] is None):
        raise ConfigError("give exactly one of 'worst_case' or a spectral model")
    if band is None:
        if axes["delta"] is not None:
            raise ConfigError("a delta axis needs 'worst_case' mode: a model pins its delta")
        model = _model_from(cfg)
        band = {"b": model[1].b, "phi": model[1].phi, "delta": model[0].delta}
    deltas, mus, qs, nus = ([value] if axes[key] is None else axes[key] for key, value in (
        ("delta", band["delta"]), ("mu", cfg["mu"]), ("q", cfg["q"]), ("nu", cfg["nu"])))
    if mus == [None] or deltas == [None]:
        raise ConfigError("sweep needs 'mu', and worst_case 'delta', as an axis or a key")
    variants = [{"variant": cfg["variant"], "q": q, "nu": nu}
                for q, nu in itertools.product(qs, nus)]
    # Worst-case cells run the verification model.
    main_dim = pea.VERIFICATION_DIM if model is None else model[0].dim
    try:
        spectral.require_finite(band["phi"], "worst_case phi")
        for delta, mu, variant_args in itertools.product(deltas, mus, variants):
            marker.check_variant(**variant_args)
            pea.check_search(delta, band["b"])
            _check_cell(variant_args, main_dim, mu)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    shared = {"model": model, "b": band["b"], "phi": band["phi"], "variants": variants,
              "n_random": cfg["n_random"], "dtype": cfg["dtype"], "seed": seed}
    # A grid without a (q, nu) cell has no group to run.
    return shared, list(itertools.product(deltas, mus)) if variants else []


def _run_group(shared: dict, group: tuple[float, int]) -> list[dict]:
    """The rows of one (delta, mu) group, whose cells share one window
    search, one model and one measured eta."""
    (delta, mu), b = group, shared["b"]
    choice = pea.best_window(mu, delta, b)
    try:
        spec, target = shared["model"] or pea.verification_model(
            delta, b, choice.lam_marked, choice.lam_unmarked, phi=shared["phi"])
    except ValueError as exc:
        raise ConfigError(f"no worst-case model at delta={delta!r}, b={b!r}: {exc}") from exc
    layout = pea.WorkspaceLayout(mu, choice.window)
    eta = pea.measure_eta(pea.build_pea(spectral.build_shifted(spec, target), layout),
                          spec, target, layout).eta
    rows = []
    for variant_args in shared["variants"]:
        assembly = marker.build_assembly(spec, target, layout, **variant_args)
        report = marker.evaluate_marker(assembly, spec, target, n_random=shared["n_random"],
                                        seed=shared["seed"], dtype=shared["dtype"])
        rows.append({"variant": assembly.variant, "delta": delta, "mu": mu,
                     "window": layout.window, "q": variant_args["q"], "nu": variant_args["nu"],
                     "phi": target.phi, "eta": eta, "worst_residual": report.worst_residual,
                     "superposition_residual": report.superposition_residual,
                     "N_U": report.counters.n_u, "N_A": report.counters.n_a,
                     "N_P": report.counters.n_p})
    return rows


def _cell_key(row: dict):
    """Sweep row order: delta, q and nu compare as their written cells (so
    1e-05 follows 0.5), mu as a number."""
    return (row["variant"], _cell(row["delta"]), row["mu"], _cell(row["q"]),
            _cell(row["nu"]))


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    shared, groups = _sweep_plan(_load_config(args), args.seed)
    run = functools.partial(_run_group, shared)
    # A fork-started pool starts all its workers at the first submit, so
    # ask for no more than there are groups to run.
    workers = min(args.jobs, len(groups))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=share_cores,
                                 initargs=(workers,)) as pool:
            results = list(pool.map(run, groups))
    else:
        results = [run(group) for group in groups]
    rows = sorted((row for group in results for row in group), key=_cell_key)
    path = os.path.join(_outdir(args), "sweep.csv")
    _write_csv(path, SWEEP_COLUMNS, rows)
    print(f"sweep: {len(rows)} cells -> {path}")
    return 0


# --- compare -----------------------------------------------------------------

def _cmd_compare(args) -> int:
    cfg = _load_config(args)
    # A cell off the table would be calibrated and measured, then dropped.
    for delta, eps in cfg["measured_cells"]:
        if delta not in cfg["delta_grid"] or eps not in cfg["eps_grid"]:
            raise ConfigError(f"measured cell ({delta!r}, {eps!r}) is not on the "
                              "delta_grid x eps_grid table")
    measured = []
    for delta, eps in cfg["measured_cells"]:
        try:
            calib = pea.calibrate_workspace(delta, cfg["b"])
            if not calib.converged:
                why = f"calibration did not converge (best mu {calib.mu})"
            elif calib.mu > cfg["mu_limit"]:
                why = f"calibrated mu {calib.mu} is above mu_limit {cfg['mu_limit']}"
            else:
                measured.append(marker.measured_cell(calib, eps))
                continue
        except ValueError as exc:
            raise ConfigError(f"measured cell ({delta!r}, {eps!r}): {exc}") from exc
        print(f"compare: measured cell ({delta!r}, {eps!r}) left unmeasured: {why}")
    try:
        rows = complexity.tabulate(cfg["delta_grid"], cfg["eps_grid"], measured)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    path = os.path.join(_outdir(args), "compare.csv")
    _write_csv(path, complexity.TABLE_COLUMNS, rows)
    print(f"compare: {len(rows)} rows ({len(measured)} measured cells) -> {path}")
    return 0


# --- audit -------------------------------------------------------------------

def _cmd_audit(args) -> int:
    # Imported here: no other subcommand needs the invariant suite.
    from . import audit

    results = audit.run_audit(seed=args.seed)
    text = audit.format_results(results)
    out = _outdir(args)
    with open(os.path.join(out, "audit.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    _write_json(os.path.join(out, "audit.json"),
                [{"name": r.name, "ok": bool(r.ok), "detail": r.detail} for r in results])
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
                        help="random seed, at least 0: draws the superposition probes "
                             "of simulate and sweep, and audit's small model's Haar "
                             "eigenbasis")
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
        if args.seed < 0:
            raise ConfigError(f"--seed must be at least 0, got {args.seed}")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

import csv
import json
import os
import pathlib
import subprocess
import sys
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from eigenmark import cli, complexity, marker, pea, spectral, statevec


def run_cli(args):
    return cli.main([str(a) for a in args])


def small_model_doc():
    return {
        "dim": 2,
        "eigenphases": [0.01, 2.0],
        "eigenbasis": "computational",
        "delta": 1.5,
        "target": {"psi_prime": 0.0, "b": 0.05, "phi": np.pi},
    }


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_missing_config_is_usage_error(tmp_path, capsys):
    assert run_cli(["simulate", "--out", tmp_path]) == 2
    assert "requires --config" in capsys.readouterr().err


def test_invalid_config_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"variant": "nope"})
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli(["frobnicate"]) == 2


def test_calibrate_writes_a_converged_result(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"delta": 3.0, "b": 0.05})
    assert run_cli(["calibrate", "--config", cfg, "--out", tmp_path]) == 0
    entry = json.loads((tmp_path / "calibration.json").read_text())
    assert (entry["delta"], entry["b"]) == (3.0, 0.05)
    assert entry["converged"]
    assert entry["eta_marked"] <= 2.0 ** -5
    assert f"mu={entry['mu']} window={entry['window']}" in capsys.readouterr().out


def test_calibrate_writes_the_runs_own_result(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"delta": 3.0, "b": 0.05})
    path = tmp_path / "out" / "calibration.json"
    written = []
    for _ in range(2):
        assert run_cli(["calibrate", "--config", cfg, "--out", tmp_path / "out"]) == 0
        written.append(path.read_bytes())
    assert written[0] == written[1]
    assert json.loads(written[0]) == asdict(pea.calibrate_workspace(3.0, 0.05))
    # Whatever the file held before, a corrupt document or an entry in the
    # old keyed format, it is overwritten without a warning.
    old_format = {"delta=3.0|b=0.05|eta_target=0.03125|algo=fejer-box-1": json.loads(written[0])}
    for before in ("{not json", json.dumps(old_format)):
        path.write_text(before)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["calibrate", "--config", cfg, "--out", tmp_path / "out"]) == 0
        assert path.read_bytes() == written[0]
    # A capped search that does not converge writes its best, with exit 1.
    capped = write_config(tmp_path, "capped.json", {"delta": 3.0, "b": 0.05, "mu_cap": 4})
    assert run_cli(["calibrate", "--config", capped, "--out", tmp_path / "out"]) == 1
    best = json.loads(path.read_text())
    assert best == asdict(pea.calibrate_workspace(3.0, 0.05, mu_cap=4))
    assert not best["converged"] and best["mu"] <= 4
    assert "FAILED (best shown)" in capsys.readouterr().out


def test_calibrate_rejects_grid_per_bin(tmp_path, capsys):
    # The grid density is the constant pea.GRID_PER_BIN; the old key is
    # rejected like any other unknown key, before any calibration work.
    cfg = write_config(tmp_path, "grid.json",
                       {"delta": 3.0, "b": 0.05, "grid_per_bin": 10_000_000})
    assert run_cli(["calibrate", "--config", cfg, "--out", tmp_path / "grid"]) == 2
    captured = capsys.readouterr()
    assert "error: unknown key 'grid_per_bin' in config" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "grid").exists()


def test_simulate_mu_below_one_is_usage_error(tmp_path, capsys, monkeypatch):
    def no_work(*_args, **_kwargs):
        raise AssertionError("best_window called with mu < 1")

    monkeypatch.setattr(pea, "best_window", no_work)
    cfg = write_config(tmp_path, "c.json", {
        "model": small_model_doc(), "variant": "pea", "mu": 0})
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("given", [{"mu": 5, "window": 1}, {"mu": 5}, {"window": 1}],
                         ids=["mu_and_window", "mu", "window"])
def test_simulate_calibrate_rejects_a_given_layout(tmp_path, capsys, monkeypatch, given):
    # Calibration chooses mu and window; a config that also gives either
    # used to run at the calibrated mu and exit 0, ignoring them.
    def no_work(*_args, **_kwargs):
        raise AssertionError("calibration started on a conflicting config")

    monkeypatch.setattr(pea, "calibrate_workspace", no_work)
    cfg = write_config(tmp_path, "c.json", {
        "model": small_model_doc(), "variant": "pea", "calibrate": True, **given})
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and '"calibrate": true' in err
    assert all(repr(key) in err for key in given)
    assert not (tmp_path / "out").exists()


def test_simulate_reports_and_determinism(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "model": small_model_doc(),
        "variant": "fixed_point",
        "q": 1,
        "mu": 4,
        "n_random": 3,
    })
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert run_cli(["simulate", "--config", cfg, "--out", out1, "--seed", 7]) == 0
    assert run_cli(["simulate", "--config", cfg, "--out", out2, "--seed", 7]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    doc = json.loads((out1 / "report.json").read_text())
    assert doc["variant"] == "fixed_point"
    assert doc["counters"]["N_U"] == doc["counters"]["N_P"] * 2 ** 4
    assert len(doc["entries"]) == 2


def test_simulate_grid_aligned_spectrum_is_exact(tmp_path):
    wdim = 16
    cfg = write_config(tmp_path, "c.json", {
        "model": {
            "dim": 2,
            "eigenphases": [0.0, 2 * np.pi * 6 / wdim],
            "delta": 2.0,
            "target": {"psi_prime": 0.0, "b": 0.05, "phi": np.pi},
        },
        "variant": "fixed_point",
        "q": 1,
        "mu": 4,
        "window": 1,
        "n_random": 3,
    })
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert all(e["residual"] <= 1e-12 for e in doc["entries"])
    assert doc["superposition_residual"] <= 1e-12


def test_simulate_variant_requirements(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "model": small_model_doc(),
        "variant": "fixed_point",
        "mu": 4,
    })
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path]) == 2


def model_with_basis(basis):
    """small_model_doc with its eigenbasis given as rows of [re, im] pairs."""
    rows = [[[c.real, c.imag] for c in row] for row in basis]
    return {**small_model_doc(), "eigenbasis": rows}


HAAR_BASIS = spectral.haar_unitary(np.random.default_rng(9), 2)


@pytest.mark.parametrize("model", [small_model_doc(), model_with_basis(HAAR_BASIS)],
                         ids=["computational", "haar"])
def test_model_path_writes_the_inline_models_reports(tmp_path, model):
    path = write_config(tmp_path, "model.json", model)
    settings = {"variant": "fixed_point", "q": 1, "mu": 4, "n_random": 2}
    for name, entry in (("inline", {"model": model}), ("file", {"model_path": str(path)})):
        cfg = write_config(tmp_path, f"{name}.json", {**settings, **entry})
        assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / name]) == 0
    for report in ("report.json", "report.csv"):
        assert (tmp_path / "inline" / report).read_bytes() == \
            (tmp_path / "file" / report).read_bytes()


def test_matrix_eigenbasis_reaches_the_report(tmp_path, monkeypatch):
    # The model the CLI reads carries the basis as given, and its report is
    # the one the same model, built in Python, gives.
    seen, evaluate = [], marker.evaluate_marker

    def seeing(assembly, spec, *args, **kwargs):
        seen.append(spec)
        return evaluate(assembly, spec, *args, **kwargs)

    monkeypatch.setattr(marker, "evaluate_marker", seeing)
    cfg = write_config(tmp_path, "c.json", {"model": model_with_basis(HAAR_BASIS),
                                            "variant": "pea", "mu": 4, "window": 1,
                                            "n_random": 2})
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path, "--seed", 5]) == 0
    assert np.abs(seen[0].eigenbasis - HAAR_BASIS).max() <= 1e-15
    spec = spectral.SpectralUnitary(dim=2, eigenphases=(0.01, 2.0), eigenbasis=HAAR_BASIS,
                                    delta=1.5)
    target = spectral.MarkTarget.resolve(spec, psi_prime=0.0, phi=np.pi, b=0.05)
    layout = pea.WorkspaceLayout(4, 1)
    want = evaluate(marker.build_assembly(spec, target, layout, variant="pea"), spec, target,
                    n_random=2, seed=5)
    got = json.loads((tmp_path / "report.json").read_text())
    assert [e["residual"] for e in got["entries"]] == [e.residual for e in want.entries]
    assert got["superposition_residual"] == want.superposition_residual


def test_non_unitary_basis_exits_2(tmp_path, capsys):
    model = {**small_model_doc(),
             "eigenbasis": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    cfg = write_config(tmp_path, "c.json", {"model": model, "variant": "pea", "mu": 4})
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unitary" in err


def test_sweep_recursion_levels(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "variant": "fixed_point",
        "worst_case": {"delta": 2.8, "b": 0.05, "phi": np.pi},
        "mu": 11,
        "grid": {"q": [0, 1, 2]},
        "n_random": 1,
    })
    assert run_cli(["sweep", "--config", cfg, "--out", tmp_path]) == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["q"] for r in rows] == ["0", "1", "2"]
    residuals = [float(r["worst_residual"]) for r in rows]
    assert residuals[1] <= residuals[0] * 1e-2
    assert residuals[2] <= residuals[1] * 1e-2
    assert [int(r["N_P"]) for r in rows] == [2 * 9 ** q * 3 for q in (0, 1, 2)]


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "variant": "pea",
        "worst_case": {"delta": 2.8, "b": 0.05, "phi": np.pi},
        "grid": {"mu": [5, 6, 7]},
        "n_random": 2,
    })
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    assert run_cli(["sweep", "--config", cfg, "--out", out1, "--seed", 3]) == 0
    assert run_cli(["sweep", "--config", cfg, "--out", out2, "--seed", 3,
                    "--jobs", 2]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_sweep_searches_each_window_once(tmp_path, monkeypatch):
    # Cells that differ only in q share (delta, mu, b, grid) and so one
    # best_window call, one model and one measured eta.
    cfg = write_config(tmp_path, "c.json", {
        "variant": "fixed_point",
        "worst_case": {"b": 0.05, "phi": np.pi},
        "mu": 5,
        "grid": {"delta": [2.8], "q": [0, 1, 2]},
        "n_random": 1,
    })
    calls = []
    search = pea.best_window

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    etas = []
    measure = pea.measure_eta

    def measured(*args, **kwargs):
        report = measure(*args, **kwargs)
        etas.append(report.eta)
        return report

    monkeypatch.setattr(pea, "best_window", counted)
    monkeypatch.setattr(pea, "measure_eta", measured)
    assert run_cli(["sweep", "--config", cfg, "--out", tmp_path / "serial"]) == 0
    assert len(calls) == 1
    assert len(etas) == 1
    with open(tmp_path / "serial" / "sweep.csv", newline="") as fh:
        assert [r["eta"] for r in csv.DictReader(fh)] == [repr(etas[0])] * 3
    assert run_cli(["sweep", "--config", cfg, "--out", tmp_path / "parallel",
                    "--jobs", 2]) == 0
    serial = (tmp_path / "serial" / "sweep.csv").read_bytes()
    assert serial == (tmp_path / "parallel" / "sweep.csv").read_bytes()
    assert len(serial.splitlines()) == 4


def test_sweep_pool_is_no_larger_than_the_group_count(tmp_path, monkeypatch, capsys):
    requested, initializers = [], []

    class InlinePool:
        """Stands in for ProcessPoolExecutor: records the worker count and
        maps in this process, so no worker is ever started.  The worker
        initializer is recorded, not run, so this process's driver keeps
        all its cores."""

        def __init__(self, max_workers, initializer=None, initargs=()):
            requested.append(max_workers)
            initializers.append((initializer, initargs))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    cfg = write_config(tmp_path, "c.json", {
        "variant": "pea",
        "worst_case": {"delta": 2.8, "b": 0.05, "phi": np.pi},
        "grid": {"mu": [3, 4, 5]},
        "n_random": 0,
    })
    assert run_cli(["sweep", "--config", cfg, "--out", tmp_path / "serial"]) == 0
    assert requested == []
    assert run_cli(["sweep", "--config", cfg, "--out", tmp_path / "wide", "--jobs", 64]) == 0
    assert requested == [3]
    # Each worker keeps its driver to its share of the cores.
    assert initializers == [(statevec.share_cores, (3,))]
    serial = (tmp_path / "serial" / "sweep.csv").read_bytes()
    assert serial == (tmp_path / "wide" / "sweep.csv").read_bytes()
    capsys.readouterr()
    for jobs in (0, -3):
        assert run_cli(["sweep", "--config", cfg, "--out", tmp_path / "bad",
                        "--jobs", jobs]) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
    assert requested == [3]
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("command", ["calibrate", "simulate", "sweep", "compare", "audit"])
@pytest.mark.parametrize("seed", [-1, -2])
def test_negative_seed_exits_2_without_traceback(tmp_path, capsys, command, seed):
    # numpy's generators refuse a negative seed (audit draws from seed + 1,
    # so -1 alone would pass there): every subcommand rejects one up front.
    assert run_cli([command, "--out", tmp_path / "out", "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert f"--seed must be at least 0, got {seed}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_sweep_config_validation(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "variant": "pea",
        "model": small_model_doc(),
        "grid": {"delta": [0.1, 0.2]},
    })
    assert run_cli(["sweep", "--config", cfg, "--out", tmp_path]) == 2
    cfg2 = write_config(tmp_path, "c2.json", {
        "variant": "pea",
        "worst_case": {"delta": 2.8, "b": 0.05, "phi": np.pi},
        "grid": {"bogus": [1]},
    })
    assert run_cli(["sweep", "--config", cfg2, "--out", tmp_path]) == 2


WORST_CASE = {"delta": 2.8, "b": 0.05, "phi": np.pi}


@pytest.mark.parametrize("doc, says", [
    ({"variant": "pea", "dtype": "complex512", "worst_case": WORST_CASE,
      "grid": {"mu": [4]}}, "error:"),
    ({"variant": "pea", "model_path": "no_such_model.json", "grid": {"mu": [4]}}, "error:"),
    ({"variant": "voting", "nu": 3, "worst_case": WORST_CASE, "grid": {"mu": [3], "q": [1]}},
     "error:"),
    ({"variant": "fixed_point", "worst_case": WORST_CASE, "mu": 4, "grid": {"q": [0, 4]}},
     "error: q=4 exceeds the level cap 3"),
    ({"variant": "voting", "worst_case": WORST_CASE, "mu": 3, "grid": {"nu": [1, 2]}},
     "error:"),
    ({"variant": "pea", "worst_case": WORST_CASE, "grid": {"mu": [0]}}, "error:"),
    ({"variant": "voting", "nu": 3, "worst_case": WORST_CASE, "grid": {"mu": [6, 7]}},
     "error:"),
    ({"variant": "pea", "worst_case": {**WORST_CASE, "b": 0.9}, "grid": {"mu": [4]}},
     "error:"),
    ({"variant": "pea", "worst_case": {**WORST_CASE, "delta": 9.0}, "grid": {"mu": [4]}},
     "error:"),
    ({"variant": "pea", "worst_case": {**WORST_CASE, "phi": float("nan")},
      "grid": {"mu": [4]}}, "error: worst_case phi must be finite"),
    # Neither a register count nor a workspace size is ever raised to a
    # power before it is checked, so these are rejected at once.
    ({"variant": "voting", "worst_case": WORST_CASE, "mu": 3, "grid": {"nu": [2 ** 40 + 1]}},
     "error: joint dimension"),
    ({"variant": "pea", "worst_case": WORST_CASE, "mu": 2 ** 70, "grid": {}}, "error: mu"),
    ({"variant": "pea", "worst_case": WORST_CASE, "mu": 1e308, "grid": {}}, "error: mu"),
    ({"variant": "pea", "worst_case": WORST_CASE, "grid": {"mu": [4, 2 ** 70]}}, "error: mu"),
    ({"variant": "pea", "worst_case": WORST_CASE, "grid": {"mu": [1e308]}}, "error: mu"),
], ids=["dtype", "model_path", "voting_q", "q_cap", "even_nu", "mu", "tensor_guard",
        "b_range", "delta_range", "phi_nan", "huge_nu", "mu_2**70", "mu_1e308", "grid_mu_2**70",
        "grid_mu_1e308"])
def test_sweep_rejects_bad_cells_before_any_work(tmp_path, capsys, monkeypatch, doc, says):
    def no_work(*_args, **_kwargs):
        raise AssertionError("best_window called before validation finished")

    monkeypatch.setattr(pea, "best_window", no_work)
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "c.json", doc)
    assert run_cli(["sweep", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert says in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def _bad_model(**changes):
    doc = small_model_doc()
    doc.update(changes)
    return doc


SIMULATE = {"model": small_model_doc(), "variant": "pea", "mu": 4}
# A model inside a "model_path" entry is written to a file, whose path
# replaces it, before the run.
MODEL_FILE = {"variant": "pea", "mu": 4}
# A bool or a string where a model takes a number, and null where it takes
# an eigenbasis or an index.
BAD_MODELS = [_bad_model(delta=True), _bad_model(eigenphases=[0.01, "2.0"]),
              _bad_model(target={"psi_prime": False, "phi": np.pi}),
              _bad_model(target={"psi_prime": 0.0, "phi": np.pi, "b": "0.05"}),
              _bad_model(eigenbasis=None),
              _bad_model(target={"psi_prime": 0.0, "phi": np.pi, "marked_index": None})]
BAD_MODEL_IDS = ["delta_bool", "eigenphase_text", "psi_prime_bool", "target_b_text",
                 "eigenbasis_null", "marked_index_null"]
COMPARE = {"delta_grid": [3.0], "eps_grid": [1e-4]}


@pytest.mark.parametrize("command, doc", [
    ("calibrate", {"delta": 3.0, "b": 0.05, "mu_cap": None}),
    ("calibrate", {"delta": 3.0, "b": 0.05, "eta_target": None}),
    ("calibrate", {"delta": 3.0, "b": 0.05, "mu_cap": 0}),
    ("simulate", {**SIMULATE, "n_random": "x"}),
    ("simulate", {**SIMULATE, "dtype": [1]}),
    ("simulate", {**SIMULATE, "model": _bad_model(target=None)}),
    ("simulate", {**SIMULATE, "model": _bad_model(eigenbasis=[[1]])}),
    ("simulate", {**SIMULATE, "model": _bad_model(target={"psi_prime": 0.0, "phi": np.pi,
                                                          "marked_index": "x"})}),
    ("simulate", {**SIMULATE, "model": _bad_model(target={"psi_prime": 0.0, "phi": np.pi,
                                                          "marked_index": 5})}),
    ("simulate", {**SIMULATE, "calibrate": True, "eta_target": None}),
    ("simulate", {**SIMULATE, "window": None}),
    ("compare", {**COMPARE, "measured_cells": [[3.0]]}),
    ("compare", {**COMPARE, "b": "x"}),
    ("compare", {**COMPARE, "mu_limit": None}),
    ("compare", {**COMPARE, "measured_cells": [[9.0, 1e-4]]}),
    # Integer keys: a fraction is not truncated and a bool is not a count.
    ("calibrate", {"delta": 3.0, "b": 0.05, "mu_cap": 1.7}),
    ("calibrate", {"delta": 3.0, "b": 0.05, "mu_cap": True}),
    ("simulate", {**SIMULATE, "n_random": 1.7}),
    ("simulate", {**SIMULATE, "n_random": -2}),
    ("simulate", {**SIMULATE, "mu": 4.5}),
    ("simulate", {**SIMULATE, "mu": True}),
    ("simulate", {**SIMULATE, "window": 1.7}),
    ("simulate", {**SIMULATE, "variant": "fixed_point", "q": 1.7}),
    ("simulate", {**SIMULATE, "variant": "voting", "nu": True}),
    ("simulate", {**SIMULATE, "model": _bad_model(dim=2.9)}),
    ("simulate", {**SIMULATE, "model": _bad_model(dim=True)}),
    ("simulate", {**SIMULATE, "model": _bad_model(target={"psi_prime": 0.0, "phi": np.pi,
                                                          "marked_index": 0.7})}),
    ("simulate", {**SIMULATE, "model": _bad_model(target={"psi_prime": 0.0, "phi": np.pi,
                                                          "marked_index": False})}),
    ("sweep", {"variant": "pea", "worst_case": WORST_CASE, "grid": {"mu": [4]},
               "n_random": -2}),
    ("sweep", {"variant": "pea", "worst_case": WORST_CASE, "grid": {"mu": [4]},
               "n_random": True}),
    ("sweep", {"variant": "pea", "worst_case": WORST_CASE, "grid": {"mu": [4.5]}}),
    ("sweep", {"variant": "fixed_point", "worst_case": WORST_CASE, "mu": 4,
               "grid": {"q": [1.7]}}),
    ("sweep", {"variant": "voting", "worst_case": WORST_CASE, "mu": 3,
               "grid": {"nu": [True]}}),
    ("compare", {**COMPARE, "mu_limit": 1.7}),
    ("compare", {**COMPARE, "mu_limit": True}),
    # An eigenbasis that is not dim rows of dim [re, im] pairs.
    ("simulate", {**SIMULATE, "model": _bad_model(eigenbasis="x")}),
    ("simulate", {**SIMULATE, "model": _bad_model(eigenbasis=[[[1, 0], [0, 0]]])}),
    ("simulate", {**SIMULATE, "model": _bad_model(eigenbasis=[[[1, 0], [0, 0]], [[0, 0]]])}),
    ("simulate", {**SIMULATE, "model": _bad_model(eigenbasis=[[[1, 0, 0], [0, 0, 0]],
                                                              [[0, 0, 0], [1, 0, 0]]])}),
    # Grid entries that are not positive and finite, and an eps whose
    # delta * eps^2 underflows to 0.
    ("compare", {**COMPARE, "delta_grid": [0]}),
    ("compare", {**COMPARE, "delta_grid": [-0.0]}),
    ("compare", {**COMPARE, "delta_grid": [False]}),
    ("compare", {**COMPARE, "eps_grid": [0]}),
    ("compare", {**COMPARE, "eps_grid": [-0.0]}),
    ("compare", {**COMPARE, "eps_grid": [False]}),
    ("compare", {**COMPARE, "eps_grid": [1e-300]}),
    # Too many registers, or too many qubits, caught before any power of
    # them is formed.
    ("simulate", {**SIMULATE, "variant": "voting", "mu": 3, "window": 1, "nu": 2 ** 40 + 1}),
    ("simulate", {**SIMULATE, "mu": 2 ** 70}),
    ("simulate", {**SIMULATE, "mu": 1e308}),
    # Phases that are not finite, on either direction or in the target.
    ("simulate", {**SIMULATE, "window": 1,
                  "model": _bad_model(eigenphases=[0.01, float("nan")])}),
    ("simulate", {**SIMULATE, "window": 1,
                  "model": _bad_model(eigenphases=[float("inf"), 2.0])}),
    ("simulate", {**SIMULATE, "window": 1,
                  "model": _bad_model(eigenphases=[0.01, float("-inf")])}),
    ("simulate", {**SIMULATE, "window": 1,
                  "model": _bad_model(target={"psi_prime": 0.0, "phi": float("nan")})}),
    ("simulate", {**SIMULATE, "window": 1,
                  "model": _bad_model(target={"psi_prime": float("nan"), "phi": np.pi})}),
    # The tensor guard runs before the window search it would make moot.
    ("simulate", {**SIMULATE, "variant": "voting", "mu": 16, "nu": 3}),
    # A number key takes no bool and no string, at any depth.
    ("calibrate", {"delta": True, "b": 0.05}),
    ("calibrate", {"delta": 3.0, "b": 0.05, "eta_target": "0.01"}),
    ("sweep", {"variant": "pea", "worst_case": {"b": 0.05, "phi": np.pi}, "mu": 4,
               "grid": {"delta": [True]}}),
    ("sweep", {"variant": "pea", "worst_case": {**WORST_CASE, "phi": True}, "grid": {"mu": [4]}}),
    ("compare", {**COMPARE, "delta_grid": [True]}),
    ("compare", {**COMPARE, "measured_cells": [[True, 1e-4]]}),
    ("compare", {**COMPARE, "b": "0.05"}),
    # A flag is a bool, and null is no key's value.
    ("simulate", {**SIMULATE, "calibrate": 1}),
    ("simulate", {**SIMULATE, "q": None}),
    ("sweep", {"variant": "pea", "worst_case": WORST_CASE, "grid": {"mu": [4]}, "nu": None}),
    # Unknown keys, at the top, in a nested table and in a model.
    ("calibrate", {"delta": 3.0, "b": 0.05, "grid_per_bin": 64}),
    ("sweep", {"variant": "pea", "worst_case": {**WORST_CASE, "bb": 0.05},
               "grid": {"mu": [4]}}),
    ("simulate", {**SIMULATE, "windw": 1}),
    ("simulate", {**SIMULATE, "model": _bad_model(dims=2)}),
    # A model is read by the same table, inline or from its file.
    *(("simulate", {**SIMULATE, "model": model}) for model in BAD_MODELS),
    *(("simulate", {**MODEL_FILE, "model_path": model}) for model in BAD_MODELS),
], ids=["calibrate_mu_cap_null", "calibrate_eta_target_null", "calibrate_mu_cap_0",
        "simulate_n_random", "simulate_dtype_list", "simulate_target_null",
        "simulate_basis_entries", "simulate_marked_index_text",
        "simulate_marked_index_range", "simulate_calibrate_eta_target_null",
        "simulate_window_null", "compare_short_cell", "compare_b", "compare_mu_limit_null",
        "compare_cell_delta", "calibrate_mu_cap_fraction",
        "calibrate_mu_cap_bool", "simulate_n_random_fraction", "simulate_n_random_negative",
        "simulate_mu_fraction", "simulate_mu_bool", "simulate_window_fraction",
        "simulate_q_fraction", "simulate_nu_bool",
        "simulate_model_dim_fraction", "simulate_model_dim_bool",
        "simulate_marked_index_fraction", "simulate_marked_index_bool",
        "sweep_n_random_negative", "sweep_n_random_bool", "sweep_mu_fraction",
        "sweep_q_fraction", "sweep_nu_bool",
        "compare_mu_limit_fraction", "compare_mu_limit_bool",
        "simulate_basis_text", "simulate_basis_rows", "simulate_basis_short_row",
        "simulate_basis_triples",
        "compare_delta_zero", "compare_delta_negative_zero", "compare_delta_false",
        "compare_eps_zero", "compare_eps_negative_zero", "compare_eps_false",
        "compare_eps_underflow", "simulate_huge_nu", "simulate_mu_2**70",
        "simulate_mu_1e308", "simulate_eigenphase_nan", "simulate_eigenphase_inf",
        "simulate_eigenphase_minus_inf", "simulate_phi_nan", "simulate_psi_prime_nan",
        "simulate_voting_guard_before_search", "calibrate_delta_bool",
        "calibrate_eta_target_text", "sweep_delta_axis_bool", "sweep_phi_bool",
        "compare_delta_bool", "compare_cell_bool", "compare_b_text", "simulate_calibrate_int",
        "simulate_q_null", "sweep_nu_null", "calibrate_unknown_key", "sweep_worst_case_unknown_key",
        "simulate_unknown_key", "simulate_model_unknown_key",
        *(f"simulate_model_{name}" for name in BAD_MODEL_IDS),
        *(f"simulate_model_path_{name}" for name in BAD_MODEL_IDS)])
def test_bad_config_exits_2_without_traceback(tmp_path, capsys, monkeypatch, command, doc):
    # Every case is rejected before any window search starts (the sweep
    # cases are in test_sweep_rejects_bad_cells_before_any_work).
    def no_work(*_args, **_kwargs):
        raise AssertionError("best_window called before validation finished")

    monkeypatch.setattr(pea, "best_window", no_work)
    if isinstance(doc.get("model_path"), dict):
        doc = {**doc, "model_path": str(write_config(tmp_path, "model.json", doc["model_path"]))}
    cfg = write_config(tmp_path, "c.json", doc)
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


BASELINE_TYPOS = {**SIMULATE, "windw": 1, "n_randon": 2, "dtyp": "complex128"}


@pytest.mark.parametrize("command, doc, meant", [
    ("simulate", BASELINE_TYPOS, "window"),
    ("simulate", {**SIMULATE, "n_randon": 2}, "n_random"),
    ("simulate", {**SIMULATE, "dtyp": "complex128"}, "dtype"),
    ("sweep", {"variant": "pea", "worst_case": {"delta": 2.8, "b": 0.05, "phii": np.pi},
               "grid": {"mu": [4]}}, "phi"),
    ("sweep", {"variant": "fixed_point", "worst_case": WORST_CASE, "mu": 4,
               "grid": {"qs": [0, 1]}}, "q"),
    ("simulate", {**SIMULATE, "model": _bad_model(eigenphase=[0.01, 2.0])}, "eigenphases"),
    ("simulate", {**SIMULATE, "model": _bad_model(target={"psi_prime": 0.0, "bb": 0.05,
                                                          "phi": np.pi})}, "b"),
], ids=["baseline", "top", "top_dtype", "worst_case", "grid", "model", "model_target"])
def test_misspelt_key_names_the_intended_key(tmp_path, capsys, monkeypatch, command, doc,
                                             meant):
    def no_work(*_args, **_kwargs):
        raise AssertionError("best_window called before validation finished")

    monkeypatch.setattr(pea, "best_window", no_work)
    cfg = write_config(tmp_path, "c.json", doc)
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown key" in err
    assert f"nearest known key is {meant!r}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def readme_config_sketches():
    """(subcommand, config) for each sketch in README's CLI section: a
    block of // comment lines naming the subcommand, then its JSON."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
    sketches = []
    for paragraph in block.strip().split("\n\n"):
        command = paragraph.split("//", 1)[1].split(":", 1)[0].strip()
        text = "\n".join(line.split("//", 1)[0] for line in paragraph.splitlines())
        sketches.append((command, json.loads(text)))
    return sketches


def test_readme_config_sketches_are_accepted():
    sketches = readme_config_sketches()
    assert sorted(command for command, _ in sketches) == sorted(cli.CONFIG_KEYS)
    for command, doc in sketches:
        assert set(cli._read(doc, cli.CONFIG_KEYS[command])) == set(cli.CONFIG_KEYS[command])


def test_sweep_delta_axis_needs_no_worst_case_delta(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "variant": "pea",
        "worst_case": {"b": 0.05, "phi": np.pi},
        "mu": 4,
        "grid": {"delta": [2.8]},
        "n_random": 1,
    })
    assert run_cli(["sweep", "--config", cfg, "--out", tmp_path]) == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["delta"] for r in rows] == ["2.8"]


def test_compare_table(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "delta_grid": [1e-2],
        "eps_grid": [10.0 ** -k for k in range(2, 9)],
    })
    assert run_cli(["compare", "--config", cfg, "--out", tmp_path]) == 0
    with open(tmp_path / "compare.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    f_ancillas = {r["N_A"] for r in rows if r["variant"] == "fixed_point"}
    assert len(f_ancillas) == 1
    by_eps = sorted(((float(r["eps"]), float(r["N_A"])) for r in rows
                     if r["variant"] == "voting"), reverse=True)
    assert all(b[1] > a[1] for a, b in zip(by_eps, by_eps[1:]))


def test_compare_with_measured_cell(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "delta_grid": [3.0],
        "eps_grid": [1e-4],
        "measured_cells": [[3.0, 1e-4]],
    })
    assert run_cli(["compare", "--config", cfg, "--out", tmp_path]) == 0
    with open(tmp_path / "compare.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    f_row = [r for r in rows if r["variant"] == "fixed_point"][0]
    assert f_row["N_U_measured"] != ""
    q = int(f_row["q"])
    mu = int(f_row["mu"])
    assert int(f_row["N_U_measured"]) == 2 * 9 ** q * 2 ** mu


def test_compare_names_each_cell_it_leaves_unmeasured(tmp_path, capsys):
    # 0.01 calibrates at mu 19, above mu_limit; 0.001 does not converge by
    # mu 20.  Both rows keep an empty N_U_measured and the run exits 0.
    cfg = write_config(tmp_path, "c.json", {
        "delta_grid": [0.001, 0.01, 3.0], "eps_grid": [1e-4],
        "measured_cells": [[0.001, 1e-4], [0.01, 1e-4], [3.0, 1e-4]],
    })
    assert run_cli(["compare", "--config", cfg, "--out", tmp_path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [
        "compare: measured cell (0.001, 0.0001) left unmeasured: calibration did not "
        "converge (best mu 20)",
        "compare: measured cell (0.01, 0.0001) left unmeasured: calibrated mu 19 is above "
        "mu_limit 16"]
    assert len(out) == 3 and "(1 measured cells)" in out[2]
    with open(tmp_path / "compare.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["variant"] == "fixed_point"]
    assert [r["N_U_measured"] != "" for r in rows] == [False, False, True]


@pytest.mark.parametrize("cell", [[0.5, 1e-4], [3.0, 1e-3]], ids=["delta", "eps"])
def test_compare_rejects_an_off_grid_measured_cell(tmp_path, capsys, monkeypatch, cell):
    # A cell off the table used to be calibrated, built and applied, then
    # dropped by tabulate, with "2 measured cells" printed and exit 0.
    def no_calibration(*_args, **_kwargs):
        raise AssertionError("calibrated")

    monkeypatch.setattr(pea, "calibrate_workspace", no_calibration)
    cfg = write_config(tmp_path, "c.json", {
        "delta_grid": [0.01, 3.0], "eps_grid": [1e-4],
        "measured_cells": [[0.01, 1e-4], [3.0, 1e-4], cell],
    })
    assert run_cli(["compare", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert f"measured cell ({cell[0]!r}, {cell[1]!r}) is not on the" in err
    assert not (tmp_path / "out").exists()


def test_readme_compare_sketch_fills_its_measured_row(tmp_path, capsys):
    (doc,) = [doc for command, doc in readme_config_sketches() if command == "compare"]
    cfg = write_config(tmp_path, "c.json", doc)
    assert run_cli(["compare", "--config", cfg, "--out", tmp_path]) == 0
    assert f"({len(doc['measured_cells'])} measured cells)" in capsys.readouterr().out
    with open(tmp_path / "compare.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for delta, eps in doc["measured_cells"]:
        (row,) = [r for r in rows if r["variant"] == "fixed_point"
                  and float(r["delta"]) == delta and float(r["eps"]) == eps]
        assert int(row["N_U_measured"]) == 2 * 9 ** int(row["q"]) * 2 ** int(row["mu"])


@pytest.mark.parametrize("value, cell", [(None, ""), (0.1, "0.1"), (1e-05, "1e-05"),
                                         (3, "3")])
def test_cell_rule(value, cell):
    assert cli._cell(value) == cell


def test_csv_writer_dialect_and_column_order(tmp_path):
    path = tmp_path / "t.csv"
    rows = [{"b": 0.5, "a": None, "c": "x,y"}, {"a": 2, "b": 1e-05, "c": "z"}]
    cli._write_csv(path, ("b", "a"), rows)
    assert path.read_bytes() == b"b,a\r\n0.5,\r\n1e-05,2\r\n"
    cli._write_csv(path, ("c",), rows)
    assert path.read_bytes() == b'c\r\n"x,y"\r\nz\r\n'


def test_json_writer_layout(tmp_path):
    path = tmp_path / "t.json"
    cli._write_json(path, {"b": [1, None], "a": 0.1})
    assert path.read_text(encoding="utf-8") == (
        '{\n  "a": 0.1,\n  "b": [\n    1,\n    null\n  ]\n}\n')


def test_only_cli_writes_files():
    for module in (marker, complexity):
        assert not {"csv", "json"} & set(vars(module)), module.__name__


def test_cli_import_leaves_audit_unloaded():
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    code = "import sys, eigenmark.cli; print('eigenmark.audit' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_module_runs_the_cli(tmp_path):
    # python -m eigenmark is the eigenmark entry point: the same audit,
    # byte for byte, as cli.main in this process.
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "eigenmark", "audit", "--seed", "0",
                           "--out", str(tmp_path / "module")], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert run_cli(["audit", "--seed", "0", "--out", tmp_path / "main"]) == 0
    for name in ("audit.txt", "audit.json"):
        assert ((tmp_path / "module" / name).read_bytes()
                == (tmp_path / "main" / name).read_bytes())

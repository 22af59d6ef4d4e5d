import csv
import json

import numpy as np
import pytest

from eigenmark import cli, pea


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


def test_calibrate_writes_cache(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"delta": 3.0, "b": 0.05})
    assert run_cli(["calibrate", "--config", cfg, "--out", tmp_path]) == 0
    cache = json.loads((tmp_path / "calibration.json").read_text())
    (key, entry), = cache.items()
    assert "delta=3.0" in key
    assert entry["converged"]
    assert entry["eta_marked"] <= 2.0 ** -5
    # Second run hits the cache and reports the same layout.
    assert run_cli(["calibrate", "--config", cfg, "--out", tmp_path]) == 0
    out = capsys.readouterr().out
    assert out.count(f"mu={entry['mu']}") == 2


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


@pytest.mark.parametrize("doc", [
    {"variant": "pea", "dtype": "complex512", "worst_case": WORST_CASE,
     "grid": {"mu": [4]}},
    {"variant": "pea", "model_path": "no_such_model.json", "grid": {"mu": [4]}},
    {"variant": "voting", "nu": 3, "worst_case": WORST_CASE, "grid": {"mu": [3], "q": [1]}},
    {"variant": "fixed_point", "worst_case": WORST_CASE, "mu": 4, "grid": {"q": [0, 4]}},
    {"variant": "voting", "worst_case": WORST_CASE, "mu": 3, "grid": {"nu": [1, 2]}},
    {"variant": "pea", "worst_case": WORST_CASE, "grid": {"mu": [0]}},
], ids=["dtype", "model_path", "voting_q", "q_cap", "even_nu", "mu"])
def test_sweep_rejects_bad_cells_before_any_work(tmp_path, capsys, monkeypatch, doc):
    def no_work(*_args, **_kwargs):
        raise AssertionError("best_window called before validation finished")

    monkeypatch.setattr(pea, "best_window", no_work)
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "c.json", doc)
    assert run_cli(["sweep", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()


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

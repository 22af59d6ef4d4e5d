"""Record the baseline: two sets of seeds 1-10 per workload, plus traced runs.

    python3 bench/baseline.py    # writes bench/baseline.json

Runs `bench/run.py` in series: a first set (every workload on seeds 1 to
10 with tracing off, then seed 1 with tracing on), then a second set made
the same way with the same seeds.  It writes bench/baseline.json, updated
after each workload of each set, with the environment block, each
workload's purpose and predicted hot and idle layers, every end-to-end
value of both sets with median, quartiles and spread (interquartile range
as a share of the median, to set against the metric's bound in
BENCHMARK.json), how far each median moved from the first set to the
second, the set-up time of the run's own process alone (setup_s is the
median of it and two child set-ups), and the traced per-layer values of
both sets.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

import run  # noqa: F401  (pins the thread counts before numpy loads)
import envinfo  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
OUT = Path(__file__).resolve().parent / "baseline.json"
SEEDS = range(1, 11)
SETS = 2
RUN_TIMEOUT_S = 600

# Layers each workload is predicted to keep busy, and layers it should
# leave untouched, so a perf change can name one workload that uses its
# mechanism and one that bypasses it.
LAYERS = {
    "calibrate": {"hot": ["pea.window_response_mass", "pea.best_window",
                          "pea.calibrate_workspace"],
                  "idle": ["pea.apply", "fpqs", "voting", "cli"]},
    "recursion": {"hot": ["pea.apply", "fpqs.selective_phase", "fpqs.level",
                          "marker.evaluate_marker"],
                  "idle": ["pea.window_response_mass", "pea.best_window",
                           "pea.calibrate_workspace", "voting", "cli"]},
    "voting": {"hot": ["pea.apply", "voting.h_tensor", "marker.evaluate_marker"],
               "idle": ["pea.window_response_mass", "pea.best_window",
                        "pea.calibrate_workspace", "fpqs.level", "cli"]},
    "sweep": {"hot": ["cli.main", "pea.best_window", "pea.window_response_mass",
                      "pea.apply", "fpqs.level"],
              "idle": ["pea.calibrate_workspace", "voting"]},
}


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    own = re.search(r"^setup_s samples: (\S+)", proc.stderr, re.MULTILINE)
    if own:
        result["own_setup_s"] = float(own.group(1))
    return result


def _summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def _record(name: str, sets: list[dict], bounds: dict, why: str) -> dict:
    e2e = {}
    for m, bound in bounds.items():
        summaries = [_summary([r["metrics"][m]["value"] for r in s["runs"]]) for s in sets]
        e2e[m] = {"unit": sets[0]["runs"][0]["metrics"][m]["unit"], "bound": bound,
                  "sets": summaries}
        if len(sets) > 1:
            first, last = summaries[0]["median"], summaries[-1]["median"]
            e2e[m]["median_shift"] = (last - first) / first
    tallies = {(s["traced"]["metrics"]["statevec.tally.U"]["value"],
                s["traced"]["metrics"]["statevec.tally.P"]["value"]) for s in sets}
    return {
        "why": why, **LAYERS[name],
        "seeds": list(SEEDS),
        "correct": all(r["correct"] for s in sets for r in s["runs"] + [s["traced"]]),
        "tally_repeats": len(tallies) == 1,
        "attempted": [[r["attempted"] for r in s["runs"]] for s in sets],
        "failed": [[r["failed"] for r in s["runs"]] for s in sets],
        "end_to_end": e2e,
        "own_setup_s": [_summary([r["own_setup_s"] for r in s["runs"]]) for s in sets],
        "per_layer_seed1": [{m: v["value"] for m, v in s["traced"]["metrics"].items()}
                            for s in sets],
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    doc = {"environment": envinfo.environment(), "run_seconds": seconds, "workloads": {}}
    sets: dict[str, list[dict]] = {name: [] for name in LAYERS}
    for k in range(SETS):
        for name in LAYERS:
            sets[name].append({"runs": [_run(name, seed, seconds, 0) for seed in SEEDS],
                               "traced": _run(name, SEEDS[0], seconds, 1)})
            doc["workloads"][name] = rec = _record(name, sets[name], bounds, why[name])
            for m, s in rec["end_to_end"].items():
                shift = s.get("median_shift")
                print(f"set {k + 1} {name:10s} {m:12s} median {s['sets'][-1]['median']:.6g} "
                      f"spread {s['sets'][-1]['spread']:.3f} (bound {s['bound']})"
                      + ("" if shift is None else f" shift {shift:+.3f}"), flush=True)
            with open(OUT, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

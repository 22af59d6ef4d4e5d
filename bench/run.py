"""Benchmark for eigenmark: one workload, one seed, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from `src/` of the checkout
that holds this file, never from an installed copy.  The run

1. sets up: imports eigenmark, makes the workload's inputs from the seed,
   builds the operators and runs one untimed warm-up task;
2. with --trace 0, repeats passes over the workload's fixed task list
   until S seconds have passed (calibrate, the slowest, makes two passes
   in the benchmark's 20 s), timing each task's library calls and
   checking each output outside the timed region, then times the set-up
   again in two fresh child processes and reports every end-to-end metric;
3. with --trace 1, instruments the library (see tracing.py), rebuilds the
   operators under the tracer and makes one pass in which each task runs
   untraced and traced back to back, then reports every per-layer metric
   of the traced half.  Spans go to `.bench_work/trace-<workload>-<seed>.json`.

The last line of standard output is the JSON result.  Failed tasks and
their tracebacks go to standard error.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS/OpenMP thread unless the caller sets another count: on a small
# shared host a second thread makes the timings noisier (and the small
# GEMMs in voting's eigenbasis rotations no faster).  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("calibrate", "recursion", "voting", "sweep")
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 120

# Unit of every end-to-end metric, in the order BENCHMARK.json lists them.
END_TO_END = {
    "wall_s": "s",
    "task_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "tasks_per_s": "1/s",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print {\"setup_s\": ...} and exit (child runs)")
    return parser.parse_args(argv)


def _load_library() -> None:
    """Put this checkout's src/ first on the path and confirm it is used."""
    if not (SRC / "eigenmark" / "__init__.py").is_file():
        raise RuntimeError(f"no eigenmark sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import eigenmark
    if Path(eigenmark.__file__).resolve().parent != SRC / "eigenmark":
        raise RuntimeError(f"eigenmark imported from {eigenmark.__file__}, not {SRC}")


class Stats:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.task_s: list[float] = []


def _run_task(wl, task, tracer):
    if tracer is not None:
        tracer.active = True
        sid = tracer.begin("task")
    try:
        start = time.perf_counter()
        out = wl.run(task)
        return out, time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.end(sid)
            tracer.active = False


def _run_pass(wl, stats: Stats, tracers=(None,)):
    """One pass over the task list, running each task once per entry of
    `tracers` (None runs it untraced), alternating the order from task to
    task.  Returns per entry the timed seconds and (N_U, N_P, cells)."""
    walls = [0.0] * len(tracers)
    counts = [(0, 0, 0)] * len(tracers)
    for k, task in enumerate(wl.tasks):
        order = range(len(tracers)) if k % 2 == 0 else reversed(range(len(tracers)))
        for j in order:
            stats.attempted += 1
            try:
                out, seconds = _run_task(wl, task, tracers[j])
                ok = wl.check(task, out)
                u, p = wl.tally(out)
                n_u, n_p, cells = counts[j]
                counts[j] = (n_u + u, n_p + p, cells + wl.cells(out))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                stats.failed += 1
                continue
            walls[j] += seconds
            stats.task_s.append(seconds)
            if ok:
                stats.completed += 1
            else:
                print(f"check failed: {wl.name} seed {wl.seed} task {k}", file=sys.stderr)
                stats.failed += 1
    return walls, counts


def _child_setup_seconds(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    samples = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def _measure(args, workdir: Path) -> dict:
    _load_library()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    wl.prepare()
    wl.warmup()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        return {"setup_s": setup_s}
    wl.expect()

    stats = Stats()
    if args.trace:
        import envinfo
        import tracing

        # Rebuild the operators under the tracer so that their applications
        # are spans, then make one pass in which every task runs untraced
        # and traced, back to back, for the overhead.
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        tracer.active = True
        wl.prepare()
        tracer.active = False
        wl.warmup()
        (plain_s, traced_s), (plain, traced) = _run_pass(wl, stats, (None, tracer))
        n_u, n_p, cells = traced
        applied = tracer.layers().get("pea.apply", {}).get("calls", 0)
        uncharged = tracer.counts.get("pea.measure_eta.directions", 0)
        correct = plain == traced and applied == n_p + uncharged
        if not correct:
            print(f"trace disagrees with the reports: pea.apply.calls={applied}, "
                  f"statevec.tally.P={n_p}, measure_eta directions={uncharged}, "
                  f"counters traced {traced} untraced {plain}", file=sys.stderr)
        metrics = tracing.per_layer(tracer, n_u, n_p, cells, traced_s - plain_s)
        units = tracing.PER_LAYER
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"trace-{args.workload}-{args.seed}.json", {
            "workload": args.workload, "seed": args.seed, "environment": envinfo.environment(),
            "untraced_pass_s": plain_s, "traced_pass_s": traced_s, "metrics": metrics})
        passes = 1
    else:
        walls, counts = [], set()
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            (wall,), (count,) = _run_pass(wl, stats)
            walls.append(wall)
            counts.add(count)
        correct = len(counts) == 1
        if not correct:
            print(f"counters differ between passes: {sorted(counts)}", file=sys.stderr)
        setup = [setup_s] + _child_setup_seconds(args)
        print(f"setup_s samples: {' '.join(map(repr, setup))}", file=sys.stderr)
        metrics = {
            "wall_s": statistics.median(walls),
            "task_s.p50": statistics.median(stats.task_s) if stats.task_s else float("nan"),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "tasks_per_s": (stats.completed / len(walls) / statistics.median(walls)
                            if statistics.median(walls) > 0 else 0.0),
        }
        units = END_TO_END
        passes = len(walls)
    print(f"{args.workload} seed {args.seed}: {passes} passes of {len(wl.tasks)} tasks, "
          f"fail_ratio {stats.failed / max(stats.attempted, 1):.3g}", file=sys.stderr)
    return {
        "correct": correct and stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    workdir = WORK / str(os.getpid())
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        result = _measure(args, workdir)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

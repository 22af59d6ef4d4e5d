"""Property tests over randomly drawn inputs.  conftest.py loads a
derandomized hypothesis profile, so every run draws the same examples."""

import contextlib
import copy
import io
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from eigenmark import cli, marker, pea, spectral, voting  # noqa: E402
from eigenmark.statevec import EXTENDED  # noqa: E402


def window_choices(mu, delta, b):
    """Every window's worst cases, computed as best_window computes them."""
    choices = []
    for w in range(2 ** (mu - 1)):
        lam_m, mass_m = pea._sup_scan(mu, w, 0.0, b * delta, outside=True)
        lam_u, mass_u = pea.worst_unmarked_mass(mu, w, delta)
        choices.append(pea.WindowChoice(w, float(np.sqrt(max(mass_m, 0.0))),
                                        float(np.sqrt(max(mass_u, 0.0))), lam_m, lam_u))
    return choices


@settings(max_examples=40)
@given(mu=st.integers(1, 7),
       delta=st.floats(0.3, float(np.pi), exclude_min=True),
       b=st.floats(0.02, 0.25, exclude_min=True))
def test_best_window_is_the_exhaustive_argmin(mu, delta, b):
    # best_window compares only the pair at the crossing; that is exact
    # only while the computed (not just the exact) worst cases are
    # monotone in the window, so check both against every window.
    choices = window_choices(mu, delta, b)
    marked = [c.eta_marked for c in choices]
    unmarked = [c.eta_unmarked for c in choices]
    assert all(x >= y for x, y in zip(marked, marked[1:]))
    assert all(x <= y for x, y in zip(unmarked, unmarked[1:]))
    assert pea.best_window(mu, delta, b) == min(choices, key=lambda c: c.eta)


@settings(max_examples=60)
@given(mu=st.integers(1, 10),
       delta=st.floats(0.3, float(np.pi), exclude_min=True),
       b=st.floats(0.02, 0.25, exclude_min=True))
def test_eta_floor_is_below_the_searched_eta(mu, delta, b):
    # Calibration rules a mu out on the floor alone, so the floor must never
    # exceed the eta^2 the search would find, beyond the samples' rounding.
    floor, window = pea._eta_floor(mu, delta, b)
    assert floor <= pea.best_window(mu, delta, b).eta ** 2 + 2e-12
    assert 0 <= window < 2 ** (mu - 1)


@settings(max_examples=60)
@given(mu=st.integers(1, 10), rows=st.integers(1, 3), cols=st.integers(1, 4),
       extended=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_walsh_hadamard_is_an_involution(mu, rows, cols, extended, seed):
    dtype = EXTENDED if extended else np.complex128
    rng = np.random.default_rng(seed)
    shape = (rows, 2 ** mu, cols)
    x = (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(dtype)
    twice = pea._fwht_axis1(pea._fwht_axis1(x))
    assert twice.dtype == dtype and twice.shape == shape
    bound = 4 * mu * np.finfo(dtype).eps * np.linalg.norm(x)
    assert np.linalg.norm(twice - x) <= bound


VARIANTS = (("pea", {}), ("fixed_point", {"q": 0}), ("fixed_point", {"q": 1}),
            ("voting", {"nu": 1}), ("voting", {"nu": 3}))


@st.composite
def marker_cases(draw, variants=VARIANTS):
    """A valid model (D <= 4, the marked phase first), its target, and one
    of variants at mu <= 6: by default q <= 1 or nu in {1, 3}."""
    dim = draw(st.integers(1, 4))
    phases = (draw(st.floats(-0.015, 0.015)),
              *(draw(st.sampled_from((-1, 1))) * draw(st.floats(0.5, float(np.pi)))
                for _ in range(dim - 1)))
    spec = spectral.SpectralUnitary(dim=dim, eigenphases=phases, delta=0.4)
    target = spectral.MarkTarget.resolve(spec, psi_prime=0.0, phi=draw(st.floats(-3.0, 3.0)),
                                         b=0.05, marked_index=0)
    mu = draw(st.integers(1, 6))
    layout = pea.WorkspaceLayout(mu, draw(st.integers(0, 2 ** (mu - 1) - 1)))
    variant, extra = draw(st.sampled_from(variants))
    assume(dim * layout.work_dim ** extra.get("nu", 1) <= voting.TENSOR_GUARD)
    return spec, target, layout, variant, extra


@settings(max_examples=60)
@given(case=marker_cases(), extended=st.booleans())
def test_inner_rows_are_the_directions(case, extended):
    # On 1 (x) u, with every main row u, row i of the inner marker is
    # directions[i] on u bit for bit: the inner marker is block-diagonal
    # across eigendirections and each row runs the same arithmetic.
    spec, target, layout, variant, extra = case
    dtype = EXTENDED if extended else np.complex128
    assembly = marker.build_assembly(spec, target, layout, variant, **extra)
    u = assembly.uniform(dtype)
    rows = assembly.inner.apply_to(np.outer(np.ones(spec.dim, dtype=dtype), u).ravel())
    rows = rows.reshape(spec.dim, assembly.work_dim)
    for i, direction in enumerate(assembly.directions):
        alone = direction.apply_to(u)
        assert alone.dtype == rows.dtype == dtype
        assert np.array_equal(alone, rows[i])


@settings(max_examples=20)
@given(case=marker_cases(VARIANTS + (("fixed_point", {"q": 2}),)), n_random=st.integers(0, 2))
def test_evaluation_counters_follow_the_laws(case, n_random):
    # Every eigendirection and every probe is one marker application, in
    # either dtype, whether the driver runs it on threads (complex256, or
    # complex128 from THREAD_MIN_DIM amplitudes) or in the calling thread.
    spec, target, layout, variant, extra = case
    assembly = marker.build_assembly(spec, target, layout, variant, **extra)
    q, nu = extra.get("q", 0), extra.get("nu", 1)
    per_marker = {"pea": 2, "fixed_point": 2 * 9 ** q, "voting": 2 * nu}[variant]
    for dtype in (np.complex128, EXTENDED):
        counters = marker.evaluate_marker(assembly, spec, target, n_random=n_random,
                                          dtype=dtype).counters
        assert counters.n_p == per_marker * (spec.dim + n_random)
        assert counters.n_u == counters.n_p * layout.work_dim
        assert counters.n_a == nu * layout.mu


def scan_per_candidate(mu, window, lo, hi, outside):
    """Reference: the 33-point refinement _sup_scan made before its
    parabolic steps, each of the three best of the grid, lo and hi refined
    on its own with one kernel call per step (3 x 4 x 33 points)."""
    xs, inside = pea._box_grid(mu, window, lo, hi)
    xs = np.concatenate((xs, [lo, hi]))
    sign = -1.0 if outside else 1.0
    vals = sign * np.concatenate((inside, pea.window_response_mass([lo, hi], mu, window)))
    best_x, best_v = lo, -np.inf
    for idx in np.argsort(vals)[::-1][:3]:
        cx, cstep = float(xs[idx]), 2 * np.pi / 2 ** mu / pea.GRID_PER_BIN
        for _ in range(4):
            sub = np.linspace(max(lo, cx - cstep), min(hi, cx + cstep), 33)
            sv = sign * pea.window_response_mass(sub, mu, window)
            j = int(np.argmax(sv))
            cx, cv = float(sub[j]), float(sv[j])
            cstep /= 8.0
        if cv > best_v:
            best_x, best_v = cx, cv
    return best_x, 1.0 + best_v if outside else best_v


def check_scan_reaches_the_oracle(mu, window, lo, hi, outside):
    lam, mass = pea._sup_scan(mu, window, lo, hi, outside)
    want = scan_per_candidate(mu, window, lo, hi, outside)[1]
    assert type(lam) is float and type(mass) is float
    # The mass is the kernel's own value at the lam returned.
    inside = float(pea.window_response_mass(lam, mu, window)[0])
    assert mass.hex() == (1.0 - inside if outside else inside).hex()
    assert mass >= want


@st.composite
def scans(draw):
    mu = draw(st.integers(1, 10))
    window = draw(st.integers(0, 2 ** (mu - 1) - 1))
    ends = st.floats(-float(np.pi), float(np.pi))
    lo, hi = sorted((draw(ends), draw(ends)))
    assume(lo < hi)
    return mu, window, lo, hi, draw(st.booleans())


@settings(max_examples=150)
@given(args=scans())
def test_parabolic_refinement_reaches_the_per_candidate_loop(args):
    check_scan_reaches_the_oracle(*args)


def calibrated_scans(mu, window, delta, b):
    """The marked scan and the first unmarked scan of a calibrated window."""
    lo = delta / 2.0
    return [(mu, window, 0.0, b * delta, True),
            (mu, window, lo, min(np.pi, lo + 64 * 2 * np.pi / 2 ** mu), False)]


@pytest.mark.parametrize("args", calibrated_scans(11, 330, 3.0, 0.05)
                         + calibrated_scans(14, 370, 0.4, 0.05),
                         ids=["11-330-marked", "11-330-unmarked", "14-370-marked",
                              "14-370-unmarked"])
def test_calibrated_scans_reach_the_per_candidate_loop(args):
    check_scan_reaches_the_oracle(*args)


# --- the CLI's exit-code contract, searched --------------------------------

MODEL = {"dim": 2, "eigenphases": [0.01, 2.0], "eigenbasis": "computational", "delta": 1.5,
         "target": {"psi_prime": 0.0, "b": 0.05, "phi": math.pi}}
WORST_CASE = {"delta": 2.8, "b": 0.05, "phi": math.pi}
# One valid config per subcommand and variant.  The simulate configs give
# a window, so the marker is built before the (stubbed) evaluation.
BASE_CONFIGS = {
    "calibrate": ("calibrate", {"delta": 3.0, "b": 0.05, "eta_target": 0.03125, "mu_cap": 20}),
    "simulate_pea": ("simulate", {"model": MODEL, "variant": "pea", "mu": 4, "window": 1,
                                  "n_random": 1, "dtype": "complex128", "calibrate": False,
                                  "eta_target": 0.03125}),
    "simulate_voting": ("simulate", {"model": MODEL, "variant": "voting", "nu": 3, "mu": 3,
                                     "window": 1, "n_random": 1}),
    "sweep_fixed_point": ("sweep", {"variant": "fixed_point", "worst_case": WORST_CASE, "mu": 4,
                                    "grid": {"q": [0, 1], "delta": [2.8]}, "n_random": 1}),
    "sweep_voting": ("sweep", {"variant": "voting", "worst_case": WORST_CASE,
                               "grid": {"mu": [3], "nu": [1, 3]}, "n_random": 1}),
    "compare": ("compare", {"b": 0.05, "mu_limit": 16, "delta_grid": [3.0, 0.4],
                            "eps_grid": [1e-4], "measured_cells": [[3.0, 1e-4]]}),
}
# Values that broke the contract somewhere once, and an odd register count
# that passes require_odd.
MUTANTS = (None, True, False, 0, -1, 1.5, math.inf, -math.inf, math.nan, 1e308, 1e-300,
           2 ** 70, -0.0, "x", [], {}, [1e-4, "x"], [None], 2 ** 61 + 1)


def config_paths(doc, prefix=()):
    """Every key, nested key and list entry of doc, as a path."""
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from config_paths(value, prefix + (key,))


class WorkReached(Exception):
    """Raised by the stubbed work entry points: the config passed every
    check the CLI makes before work starts."""


def reach_work(*_args, **_kwargs):
    raise WorkReached


def run_stubbed(command, doc, directory):
    """(exit code, stderr) of the CLI on the config doc, with the work entry
    points stubbed to raise WorkReached, which propagates."""
    config = directory / "c.json"
    config.write_text(json.dumps(doc))
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        for module, name in ((pea, "best_window"), (pea, "calibrate_workspace"),
                             (pea, "measure_eta"), (marker, "evaluate_marker")):
            mp.setattr(module, name, reach_work)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--config", str(config), "--out", str(directory)])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def held_at(doc, path):
    """The value at path in doc, or None where a change left no such path."""
    for key in path:
        if not (isinstance(doc, dict) and key in doc
                or isinstance(doc, list) and isinstance(key, int) and key < len(doc)):
            return None
        doc = doc[key]
    return doc


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


NUMBER_PATHS = [(name, path) for name, (_command, base) in sorted(BASE_CONFIGS.items())
                for path in config_paths(base) if is_number(value_at(base, path))]


@pytest.mark.parametrize("wrong", [True, False, "x", "1.0"], ids=repr)
@pytest.mark.parametrize("name, path", NUMBER_PATHS,
                         ids=[f"{name}:{'.'.join(map(str, path))}" for name, path in NUMBER_PATHS])
def test_a_bool_or_string_for_a_number_exits_2(fuzz_dir, name, path, wrong):
    # Every number-valued path of every base config, at any depth, with
    # no example search: a bool or a string there exits 2 before any work.
    command, base = BASE_CONFIGS[name]
    doc = copy.deepcopy(base)
    value_at(doc, path[:-1])[path[-1]] = wrong
    code, err = run_stubbed(command, doc, fuzz_dir)
    assert code == 2
    assert err.startswith("error: config"), err


@settings(max_examples=300)
@given(data=st.data())
def test_mutated_configs_keep_the_exit_code_contract(fuzz_dir, data):
    # Exit 0, 1 or 2, a 2 says "error:", and nothing escapes as a traceback.
    # Deeper paths are set first, so no later change lands inside a value
    # that replaced its parent.  Then a key may be misspelt, by doubling
    # its last letter, which exits 2 before any work.  A bool or a string
    # left where the base config held a number exits 2 as well, at any
    # depth, a model's keys included, before any domain check.
    command, base = BASE_CONFIGS[data.draw(st.sampled_from(sorted(BASE_CONFIGS)))]
    paths = data.draw(st.lists(st.sampled_from(list(config_paths(base))), min_size=1,
                               max_size=3, unique=True))
    doc, mutated = copy.deepcopy(base), []
    for path in sorted(paths, key=len, reverse=True):
        mutant = data.draw(st.sampled_from(MUTANTS))
        value_at(doc, path[:-1])[path[-1]] = copy.deepcopy(mutant)
        mutated.append((path, mutant))
    keys = [path for path in config_paths(doc) if isinstance(value_at(doc, path[:-1]), dict)]
    renamed = data.draw(st.one_of(st.none(), st.sampled_from(keys)))
    if renamed is not None:
        parent, key = value_at(doc, renamed[:-1]), renamed[-1]
        parent[key + key[-1]] = parent.pop(key)
    wrong_kind = any(isinstance(mutant, (bool, str)) and is_number(value_at(base, path))
                     and held_at(doc, path) is mutant for path, mutant in mutated)
    try:
        code, err = run_stubbed(command, doc, fuzz_dir)
    except WorkReached:
        assert renamed is None and not wrong_kind
        return
    assert code in (0, 1, 2)
    if code == 2:
        assert "error:" in err
    if renamed is not None or wrong_kind:
        assert code == 2
    if renamed is not None and len(renamed) == 1:
        assert f"nearest known key is {key!r}" in err
    if wrong_kind and renamed is None:
        # The key table rejects it, naming where it is; no later check does.
        assert err.startswith("error: config")
    assert "Traceback" not in err

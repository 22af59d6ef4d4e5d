"""Property tests over randomly drawn inputs.  conftest.py loads a
derandomized hypothesis profile, so every run draws the same examples."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from eigenmark import pea  # noqa: E402
from eigenmark.statevec import EXTENDED  # noqa: E402


@settings(max_examples=120)
@given(mu=st.integers(1, 8),
       delta=st.floats(0.3, float(np.pi), exclude_min=True),
       b=st.floats(0.02, 0.25, exclude_min=True),
       start=st.integers())
def test_best_window_start_changes_nothing(mu, delta, b, start):
    assert pea.best_window(mu, delta, b, start=start) == pea.best_window(mu, delta, b)


def window_choices(mu, delta, b, grid_per_bin=64):
    """Every window's worst cases, computed as best_window computes them."""
    choices = []
    for w in range(2 ** (mu - 1)):
        lam_m, mass_m = pea._sup_scan(mu, w, 0.0, b * delta, grid_per_bin, outside=True)
        lam_u, mass_u = pea.worst_unmarked_mass(mu, w, delta, grid_per_bin)
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


def scan_per_candidate(mu, window, lo, hi, grid_per_bin, outside):
    """Reference: _sup_scan as first written, each of the three candidates
    refined on its own with one kernel call per step (3 x 4 x 33 points)."""
    xs, inside = pea._box_grid(mu, window, lo, hi, grid_per_bin)
    xs = np.concatenate((xs, [lo, hi]))
    sign = -1.0 if outside else 1.0
    vals = sign * np.concatenate((inside, pea.window_response_mass([lo, hi], mu, window)))
    best_x, best_v = lo, -np.inf
    for idx in np.argsort(vals)[::-1][:3]:
        cx, cstep = float(xs[idx]), 2 * np.pi / 2 ** mu / grid_per_bin
        for _ in range(4):
            sub = np.linspace(max(lo, cx - cstep), min(hi, cx + cstep), 33)
            sv = sign * pea.window_response_mass(sub, mu, window)
            j = int(np.argmax(sv))
            cx, cv = float(sub[j]), float(sv[j])
            cstep /= 8.0
        if cv > best_v:
            best_x, best_v = cx, cv
    return best_x, 1.0 + best_v if outside else best_v


@st.composite
def scans(draw):
    mu = draw(st.integers(1, 10))
    window = draw(st.integers(0, 2 ** (mu - 1) - 1))
    ends = st.floats(-float(np.pi), float(np.pi))
    lo, hi = sorted((draw(ends), draw(ends)))
    assume(lo < hi)
    return mu, window, lo, hi, draw(st.sampled_from((1, 3, 64))), draw(st.booleans())


@settings(max_examples=150)
@given(args=scans())
def test_shared_refinement_matches_the_per_candidate_loop(args):
    got = pea._sup_scan(*args)
    want = scan_per_candidate(*args)
    assert all(type(x) is float for x in got)
    # Bit for bit: lam, and the mass the kernel gave it.
    assert [x.hex() for x in got] == [x.hex() for x in want]

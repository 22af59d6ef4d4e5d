"""Property tests over randomly drawn inputs.  conftest.py loads a
derandomized hypothesis profile, so every run draws the same examples."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from eigenmark import pea  # noqa: E402


@settings(max_examples=120)
@given(mu=st.integers(1, 8),
       delta=st.floats(0.3, float(np.pi), exclude_min=True),
       b=st.floats(0.02, 0.25, exclude_min=True),
       start=st.integers())
def test_best_window_start_changes_nothing(mu, delta, b, start):
    assert pea.best_window(mu, delta, b, start=start) == pea.best_window(mu, delta, b)

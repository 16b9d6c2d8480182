"""``repro.percentile.percentile`` is ``np.percentile``, bit for bit.

Every latency percentile in ``repro`` goes through the one function, so
a report's bytes depend on it matching numpy's default ``linear``
method exactly.  The property tests compare the ``int64`` views of both
results and their types over the shapes the callers use: a scalar ``q``
(int or float), a list, and the 101-point quantile grid of a cell, on
one-sample, tied, integer and float64 inputs from 1e-9 to 1e12.  Run
against the newest numpy, they catch any drift in numpy's lerp.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.percentile import percentile
from repro.runner.cells import QUANTILE_GRID

_magnitudes = st.floats(min_value=1e-9, max_value=1e12)
_signed = st.builds(lambda m, neg: -m if neg else m, _magnitudes, st.booleans())
_ties = st.sampled_from([1e-9, 3.5, 62.25, 1e12])
_samples = st.one_of(
    st.lists(_signed, min_size=1, max_size=200).map(np.array),
    # ties: few distinct values, many repeats
    st.lists(_ties, min_size=1, max_size=60).map(np.array),
    st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=200).map(
        lambda xs: np.array(xs, dtype=np.int64)
    ),
    _signed.map(lambda x: np.array([x])),
)
_qs = st.one_of(
    st.integers(min_value=0, max_value=100),
    st.floats(min_value=0.0, max_value=100.0),
    st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=12),
    st.just(QUANTILE_GRID),
    st.just(list(QUANTILE_GRID)),
)


def _assert_bit_identical(got, want) -> None:
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@given(_samples, _qs)
@settings(max_examples=400, deadline=None)
def test_matches_numpy_bit_for_bit(sample, q):
    _assert_bit_identical(percentile(sample, q), np.percentile(sample, q))


@pytest.mark.parametrize("q", [0, 1, 50, 99, 100, 99.9, [25.0, 75.0], QUANTILE_GRID])
def test_one_sample_python_lists_and_nan(q):
    for sample in ([42.0], [3, 1, 2], [0.5, 0.5, 0.5, 7.25], [1.0, np.nan, 3.0]):
        _assert_bit_identical(percentile(sample, q), np.percentile(sample, q))


def test_empty_sample_raises_like_numpy():
    with pytest.raises(IndexError):
        np.percentile(np.empty(0), 50)
    with pytest.raises(IndexError):
        percentile(np.empty(0), 50)


@pytest.mark.parametrize("q", [-1, 100.5, [50, 101]])
def test_out_of_range_q_raises_like_numpy(q):
    with pytest.raises(ValueError, match="range"):
        np.percentile([1.0, 2.0], q)
    with pytest.raises(ValueError, match="range"):
        percentile([1.0, 2.0], q)


def test_imports_only_numpy_and_never_numpy_ma():
    code = (
        "import json, sys, numpy\n"
        "numpy_own = sorted(sys.modules)\n"
        "from repro.percentile import percentile\n"
        "percentile([3.0, 1.0, 2.0], list(range(101)))\n"
        "print(json.dumps([numpy_own, sorted(sys.modules)]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout
    numpy_own, modules = json.loads(out.splitlines()[-1])
    repro_modules = [m for m in modules if m.split(".")[0] == "repro"]
    assert repro_modules == ["repro", "repro.percentile"]
    # an older numpy imports numpy.ma with numpy itself; the percentile must
    # not be what loads it
    assert "numpy.ma" not in set(modules) - set(numpy_own)

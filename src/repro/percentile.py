"""One exact percentile for every latency summary in ``repro``.

:func:`percentile` returns the bits ``np.percentile(a, q)`` returns with
its default ``linear`` method, and the same type: a numpy scalar for a
scalar ``q``, an array for a sequence.  It follows numpy's own steps --
``q / 100`` by ``true_divide``, the virtual index ``(n - 1) * q``, its
floor and next neighbours clamped to the ends, and the two-sided lerp
that switches to ``b - (b - a) * (1 - t)`` at ``t >= 0.5`` -- but reads
the neighbours from ``np.sort`` instead of a partition.  numpy's
partition dedupes its indices with ``np.unique``, and on recent numpy
``np.unique`` calls ``np.ma.is_masked``, which imports ``numpy.ma``.  On
``shard-1000-socket`` that import is about 1.7 MB of each socket
worker's peak RSS.  A sort gives the same value at every index (equal
floats are equal bits, except ``-0.0`` and ``0.0``).  Each step wraps
its result in ``np.asarray`` rather than passing ``out=...``, which
numpy only accepts from 2.3 on, below the package's ``numpy>=1.24``.

This module imports only numpy, so the runner, cluster, workload, sim
and analysis layers can all import it without pulling in each other.
``tests/test_percentile.py`` pins the bit identity against the
installed numpy.
"""

from __future__ import annotations

import numpy as np


def percentile(a, q):
    """``np.percentile(a, q)`` over the flattened ``a``, bit for bit."""
    weak_q = type(q) in (int, float)
    # np.asarray keeps a scalar q a writable 0-d array through each step
    q = np.asarray(np.true_divide(q, 100))
    if not (q.min() >= 0 and q.max() <= 1):
        raise ValueError("Percentiles must be in the range [0, 100]")
    arr = np.sort(np.asanyarray(a), axis=None)
    n = arr.size
    index = np.asarray((n - 1) * q)
    lo = np.asarray(np.floor(index))
    hi = np.asarray(lo + 1)
    top = index >= n - 1
    lo[top] = hi[top] = -1
    lo = lo.astype(np.intp)
    hi = hi.astype(np.intp)
    gamma = np.asarray(index - lo, dtype=index.dtype)
    if weak_q:
        gamma = float(gamma)
    a_lo, a_hi = arr[lo], arr[hi]
    diff = a_hi - a_lo
    result = np.asarray(a_lo + diff * gamma)
    np.subtract(
        a_hi,
        diff * (1 - gamma),
        out=result,
        where=gamma >= 0.5,
        casting="unsafe",
        dtype=result.dtype,
    )
    if arr.dtype.kind == "f" and np.isnan(arr[-1]):
        # numpy's partition leaves a NaN last, and a NaN sample's every
        # percentile is that NaN
        result[...] = arr[-1]
    return result[()] if result.ndim == 0 else result

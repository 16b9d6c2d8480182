"""Worker-side half of the benchmark's traced run.

The traced ``shard-1000-socket`` op puts this directory on the
``PYTHONPATH`` its socket workers inherit and names an output directory
in ``PERFBENCH_TRACE_DIR``; Python imports ``sitecustomize`` at start-up,
so each worker traces the cells it executes.  Without the variable the
module does nothing.
"""

import os
import sys

if os.environ.get("PERFBENCH_TRACE_DIR"):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import layers  # noqa: E402

    layers.install_worker_hook(os.environ[layers.TRACE_DIR_ENV])

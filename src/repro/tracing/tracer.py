"""Quantum-level execution trace recording."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.oskernel import System


@dataclass(frozen=True)
class QuantumRecord:
    """One executed scheduling quantum."""

    lcpu: int
    tid: int
    kind: str  # "mem" | "comp"
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


class ExecutionTracer:
    """Records every quantum of a System into five unboxed typed columns
    (lcpu, tid, is_mem, start, duration), cheap to append and about 33 B
    per quantum.

    Usage::

        tracer = ExecutionTracer(system)
        tracer.attach()
        ...run...
        tracer.detach()
        print(gantt(tracer, lcpus=range(4)))
    """

    def __init__(self, system: "System", max_records: int = 2_000_000):
        self.system = system
        self.max_records = max_records
        self._lcpu = array("q")
        self._tid = array("q")
        self._is_mem = array("b")
        self._start = array("d")
        self._duration = array("d")
        self.dropped = 0
        self._attached = False

    def __len__(self) -> int:
        return len(self._lcpu)

    # -- lifecycle ---------------------------------------------------------

    def attach(self) -> None:
        """Install the quantum hook.  Idempotent: re-attaching an already
        attached tracer is a no-op (it must not double-hook or clobber the
        buffers); attaching over a *different* hook is still an error."""
        # note == not is: each self._record access builds a fresh bound
        # method, so identity comparison would never match.
        if self._attached and self.system.quantum_hook == self._record:
            return
        if self.system.quantum_hook is not None:
            raise RuntimeError("another quantum hook is already installed")
        self.system.quantum_hook = self._record
        self._attached = True

    def detach(self) -> None:
        """Remove the hook.  Idempotent, and never clobbers a hook some
        other tracer installed after this one detached."""
        if not self._attached:
            return
        if self.system.quantum_hook == self._record:
            self.system.quantum_hook = None
        self._attached = False

    def _record(self, lcpu: int, tid: int, kind: str, start: float,
                duration: float) -> None:
        if len(self._lcpu) >= self.max_records:
            self.dropped += 1
            return
        self._lcpu.append(lcpu)
        self._tid.append(tid)
        self._is_mem.append(kind == "mem")
        self._start.append(start)
        self._duration.append(duration)

    # -- access ------------------------------------------------------------------

    def records(
        self,
        lcpu: Optional[int] = None,
        tid: Optional[int] = None,
        t0: float = -np.inf,
        t1: float = np.inf,
    ) -> list[QuantumRecord]:
        out = []
        for c, t, m, s, d in zip(self._lcpu, self._tid, self._is_mem,
                                 self._start, self._duration):
            if lcpu is not None and c != lcpu:
                continue
            if tid is not None and t != tid:
                continue
            if not (t0 <= s < t1):
                continue
            out.append(QuantumRecord(c, t, "mem" if m else "comp", s, d))
        return out

    def arrays(self) -> dict[str, np.ndarray]:
        """Columnar numpy export (lcpu, tid, start, duration; kind as
        ``is_mem``).  Copies, so the tracer can keep appending."""
        return {
            "lcpu": np.array(self._lcpu, dtype=np.int64),
            "tid": np.array(self._tid, dtype=np.int64),
            "is_mem": np.array(self._is_mem, dtype=bool),
            "start": np.array(self._start, dtype=np.float64),
            "duration": np.array(self._duration, dtype=np.float64),
        }

    def lists(self) -> dict[str, list]:
        """The columns as plain Python lists of int, bool and float (the
        obs snapshot's ``quanta`` form)."""
        return {
            "lcpu": self._lcpu.tolist(),
            "tid": self._tid.tolist(),
            "is_mem": list(map(bool, self._is_mem)),
            "start": self._start.tolist(),
            "duration": self._duration.tolist(),
        }

    def busy_time(self, lcpu: int) -> float:
        """Total traced busy time on one logical CPU."""
        a = self.arrays()
        return float(a["duration"][a["lcpu"] == lcpu].sum())

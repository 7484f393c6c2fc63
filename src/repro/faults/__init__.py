"""Deterministic fault injection and resilience for S-EnKF runs.

The paper's operating point — thousands of ranks against a shared parallel
file system — is a regime where slow disks, straggler ranks and lost
member files are routine, so this package makes degraded hardware a
first-class, *replayable* input:

- :class:`FaultSchedule` — a seeded, pure-function fault plan (disk
  faults/slowdowns, storage-node outages, stragglers, message delay/drop,
  rank kills, corrupted member files).  Same seed ⇒ byte-identical faults.
- :class:`RetryPolicy` — bounded exponential backoff with deadlines,
  shared by the simulated executors and the real-file path, where
  :func:`run_with_retry` is the one retry loop (staging a read plan,
  saving and loading a checkpoint).
- :class:`FaultInjector` — binds a schedule to one run and records into a
  :class:`ResilienceReport` (faults injected, retries, failovers, members
  dropped, slowdown vs clean).
- :class:`DegradedResult` — the record filters return when they proceed
  with ``N - k`` surviving members instead of crashing.
- ``repro.faults.store`` — the real-file side: :class:`FaultyStore`
  (imported lazily to keep this package a light dependency for the
  machine layers).  Degrading on a lost member file is
  :func:`repro.data.stage_plan_from_disk` with a :class:`RetryPolicy`.

See ``docs/RESILIENCE.md`` for the fault model and guarantees.
"""

from repro.faults.errors import (
    CorruptMemberError,
    DeadlockError,
    DiskFaultError,
    FaultError,
    MemberUnrecoverableError,
    TransientIOError,
)
from repro.faults.inject import FaultInjector
from repro.faults.policy import RetryPolicy, run_with_retry
from repro.faults.report import DegradedResult, ResilienceReport
from repro.faults.schedule import DiskFault, DiskOutage, FaultSchedule

__all__ = [
    "CorruptMemberError",
    "DeadlockError",
    "DegradedResult",
    "DiskFault",
    "DiskFaultError",
    "DiskOutage",
    "FaultError",
    "FaultInjector",
    "FaultSchedule",
    "FaultyStore",
    "MemberUnrecoverableError",
    "ResilienceReport",
    "RetryPolicy",
    "TransientIOError",
    "run_with_retry",
]


def __getattr__(name):
    # FaultyStore pulls in numpy + repro.data; loading it lazily keeps
    # `repro.faults` importable from the low-level machine layers
    # (cluster.disk, mpisim) and from repro.data without import cycles.
    if name == "FaultyStore":
        from repro.faults.store import FaultyStore

        return FaultyStore
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

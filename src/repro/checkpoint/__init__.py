"""Checkpoint/restart for multi-cycle reanalysis campaigns.

PR 1's resilience layer (``repro.faults``) recovers *within* one
assimilation; this package makes the campaign itself durable.  A
reanalysis run checkpoints its full cycling state — analysis ensemble,
truth/free trajectories, diagnostics, RNG seed and the serialised fault
schedule — into versioned, checksummed, atomically-committed
``cycle-NNNNN/`` directories, and resumes from the newest checkpoint
that verifies with a guarantee the tests pin down: *crash at any point
plus* ``resume()`` *is bit-identical to an uninterrupted run*.

- :class:`CheckpointStore` — atomic stage/rename commit, SHA-256
  verification on load, retention GC (:class:`RetentionPolicy`),
  fall-back past corrupt checkpoints (:meth:`CheckpointStore.load_best`).
- :class:`CampaignRunner` — drives a
  :class:`~repro.models.twin.TwinExperiment` with periodic checkpoints;
  ``resume()`` fast-forwards the RNG stream and replays the exact
  :class:`~repro.faults.schedule.FaultSchedule` recorded in the manifest.
- :mod:`repro.checkpoint.costs` — the simulated-machine economics:
  checkpoint write time, expected overhead under an MTTF, and Young's
  optimal interval (surfaced through
  :meth:`~repro.filters.cycling.ReanalysisCampaign.checkpoint_tradeoff`).

See ``docs/CHECKPOINT.md`` for the on-disk format and guarantees.
"""

from repro.checkpoint.costs import expected_overhead, tradeoff_table, young_interval
from repro.checkpoint.errors import (
    CheckpointError,
    CorruptCheckpointError,
    NoCheckpointError,
    ScheduleMismatchError,
)
from repro.checkpoint.format import SCHEMA_VERSION, CheckpointManifest
from repro.checkpoint.runner import (
    CampaignRunner,
    SimulatedCrash,
    SupervisionReport,
)
from repro.checkpoint.store import Checkpoint, CheckpointStore, RetentionPolicy

__all__ = [
    "CampaignRunner",
    "Checkpoint",
    "CheckpointError",
    "CheckpointManifest",
    "CheckpointStore",
    "CorruptCheckpointError",
    "NoCheckpointError",
    "RetentionPolicy",
    "SCHEMA_VERSION",
    "ScheduleMismatchError",
    "SimulatedCrash",
    "SupervisionReport",
    "expected_overhead",
    "tradeoff_table",
    "young_interval",
]

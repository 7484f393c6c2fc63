"""Fault injection for the *real-file* path.

:class:`FaultyStore` decorates an :class:`~repro.data.store.EnsembleStore`
with schedule-driven faults: transient read failures (the first ``k``
attempts of a member raise :class:`TransientIOError`, then reads succeed —
a stalled OST recovering), permanent corruption (the member's file is
physically truncated on disk, so even a direct read of the real bytes
raises :class:`CorruptMemberError`) and torn writes.

Resilience is not here: :func:`~repro.data.store.stage_plan_from_disk`
given a :class:`~repro.faults.policy.RetryPolicy` reads any store — faulty
or genuine — under :func:`~repro.faults.policy.run_with_retry`, the one
real-file retry loop, and degrades instead of crashing: members whose
reads stay broken are *dropped* and returned in the drop list, ready for
:meth:`~repro.filters.distributed.DistributedEnKF.assimilate_degraded`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.data.store import EnsembleStore
from repro.faults.errors import TransientIOError
from repro.faults.report import ResilienceReport
from repro.faults.schedule import FaultSchedule
from repro.telemetry.metrics import get_metrics
from repro.telemetry.tracer import get_tracer

__all__ = ["FaultyStore"]


class FaultyStore:
    """An :class:`EnsembleStore` view that injects scheduled read and
    torn-write faults."""

    def __init__(
        self,
        inner: EnsembleStore,
        schedule: FaultSchedule,
        report: ResilienceReport | None = None,
    ):
        self.inner = inner
        self.schedule = schedule
        self.report = report if report is not None else ResilienceReport()
        self._attempts: dict[int, int] = {}
        self._write_attempts: dict[int, int] = {}
        self._truncated: set[int] = set()

    # Delegated surface (what staging, plans and checkpoints need).
    @property
    def grid(self):
        return self.inner.grid

    @property
    def layout(self):
        return self.inner.layout

    def member_path(self, k: int) -> Path:
        return self.inner.member_path(k)

    def n_members(self) -> int:
        return self.inner.n_members()

    # The store's own write surface: through this store's extent_writer(),
    # and so through its torn-write faults, pooled writes included.
    write_member = EnsembleStore.write_member
    write_ensemble = EnsembleStore.write_ensemble

    def extent_writer(self):
        """The inner store's writer, with this store's faults on every
        member write."""
        return self.inner.extent_writer(before_write=self._check_write_faults)

    # -- fault machinery ----------------------------------------------------
    def _check_write_faults(self, k: int) -> None:
        """A scheduled write fault emulates a writer killed mid-file under
        the store's atomic protocol: a half-length ``.tmp`` sibling is left
        behind (never the real member file) and the attempt
        raises :class:`TransientIOError`.  Attempts are counted per member,
        so a retrying writer succeeds once the schedule's
        ``member_write_attempts`` leading failures are spent."""
        attempt = self._write_attempts.get(k, 0) + 1
        self._write_attempts[k] = attempt
        if attempt > self.schedule.member_write_failures(k):
            return
        path = self.inner.member_path(k)
        with open(path.with_name(path.name + ".tmp"), "wb") as fh:
            fh.truncate(max(1, self.grid.n // 2) * 8)
        self.report.disk_faults += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "fault.injected", category="fault",
                kind="torn_write", member=k, attempt=attempt,
            )
            get_metrics().counter("fault.injected").inc()
        raise TransientIOError(
            f"injected torn write of member {k} (attempt {attempt})"
        )

    def _truncate_on_disk(self, k: int) -> None:
        """Physically corrupt member ``k``: chop the file short once."""
        if k in self._truncated:
            return
        path = self.inner.member_path(k)
        if path.exists():
            keep = max(1, path.stat().st_size // 2)
            with open(path, "r+b") as fh:
                fh.truncate(keep)
        self._truncated.add(k)

    def _check_faults(self, k: int) -> None:
        if self.schedule.member_corrupt(k):
            # Permanent: damage the real bytes so even direct reads see it.
            self._truncate_on_disk(k)
        attempt = self._attempts.get(k, 0) + 1
        self._attempts[k] = attempt
        if attempt <= self.schedule.member_failures(k):
            self.report.disk_faults += 1
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "fault.injected", category="fault",
                    kind="transient_read", member=k, attempt=attempt,
                )
                get_metrics().counter("fault.injected").inc()
            raise TransientIOError(
                f"injected transient failure reading member {k} "
                f"(attempt {attempt})"
            )

    def read_member(self, k: int) -> np.ndarray:
        self._check_faults(k)
        return self.inner.read_member(k)

    def extent_reader(self):
        """The inner store's reader, with this store's faults on every read."""
        return self.inner.extent_reader(before_read=self._check_faults)

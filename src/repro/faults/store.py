"""Fault injection and resilient reading for the *real-file* path.

:class:`FaultyStore` decorates an :class:`~repro.data.store.EnsembleStore`
with schedule-driven faults: transient read failures (the first ``k``
attempts of a member raise :class:`TransientIOError`, then reads succeed —
a stalled OST recovering) and permanent corruption (the member's file is
physically truncated on disk, so even a direct read of the real bytes
raises :class:`CorruptMemberError`).

The resilient readers wrap any store — faulty or genuine — with a
:class:`~repro.faults.policy.RetryPolicy` loop and degrade instead of
crashing: members whose reads stay broken are *dropped* and reported, and
the caller gets the surviving data plus the drop list, ready for
:meth:`~repro.filters.distributed.DistributedEnKF.assimilate_degraded`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.data.store import EnsembleStore
from repro.faults.errors import (
    CorruptMemberError,
    MemberUnrecoverableError,
    TransientIOError,
)
from repro.faults.policy import RetryPolicy
from repro.faults.report import ResilienceReport
from repro.faults.schedule import FaultSchedule
from repro.io.plan import ReadPlan
from repro.telemetry.metrics import get_metrics
from repro.telemetry.tracer import get_tracer

__all__ = [
    "FaultyStore",
    "read_ensemble_resilient",
    "read_plan_from_disk_resilient",
]


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

    # Delegated surface (what the resilient readers and plans need).
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

    def read_extents(self, k: int, extents) -> np.ndarray:
        self._check_faults(k)
        return self.inner.read_extents(k, extents)

    def extent_reader(self):
        """The inner store's reader, with this store's faults on every read."""
        return self.inner.extent_reader(before_read=self._check_faults)


def _read_with_retry(store, member: int, reader, retry: RetryPolicy,
                     report: ResilienceReport):
    """Run ``reader()`` with the retry loop; raise MemberUnrecoverableError."""
    tracer = get_tracer()
    attempt = 0
    while True:
        t0 = tracer.now()
        try:
            return reader()
        except CorruptMemberError as exc:
            # Retrying re-reads the same bad bytes: permanent, drop now.
            report.failed_ops += 1
            if tracer.enabled:
                tracer.record(
                    "fault.unrecoverable", t0, tracer.now(), category="fault",
                    member=member, error=type(exc).__name__,
                )
                get_metrics().counter("fault.members_unrecoverable").inc()
            raise MemberUnrecoverableError(member, cause=exc) from exc
        except OSError as exc:
            if not retry.should_retry(attempt):
                report.failed_ops += 1
                if tracer.enabled:
                    tracer.record(
                        "fault.unrecoverable", t0, tracer.now(),
                        category="fault", member=member,
                        error=type(exc).__name__, attempts=attempt + 1,
                    )
                    get_metrics().counter("fault.members_unrecoverable").inc()
                raise MemberUnrecoverableError(member, cause=exc) from exc
            report.retries += 1
            attempt += 1
            if tracer.enabled:
                tracer.record(
                    "fault.retry", t0, tracer.now(), category="fault",
                    member=member, attempt=attempt,
                )
                get_metrics().counter("fault.retries").inc()
            # Real-file path: retry immediately; wall-clock sleeps would only
            # slow the reproduction down (the DES paths charge simulated
            # backoff instead).


def read_plan_from_disk_resilient(
    plan: ReadPlan,
    store,
    retry: RetryPolicy | None = None,
    report: ResilienceReport | None = None,
) -> tuple[dict[int, dict[int, np.ndarray]], list[int]]:
    """Execute a :class:`ReadPlan` against real files, degrading on faults.

    Like :func:`repro.data.store.read_plan_from_disk` but each per-op read
    is retried under ``retry``; members that stay unreadable are dropped
    from *every* rank's output (an ensemble member is only usable when all
    of its pieces arrived) and returned in the drop list.
    """
    retry = retry if retry is not None else RetryPolicy()
    report = report if report is not None else ResilienceReport()
    out: dict[int, dict[int, np.ndarray]] = {}
    dropped: set[int] = set()
    with store.extent_reader() as reader:
        for rank, rank_plan in plan.per_rank.items():
            per_file: dict[int, np.ndarray] = {}
            for op in rank_plan.reads:
                if op.file_id in dropped:
                    continue
                try:
                    per_file[op.file_id] = _read_with_retry(
                        store,
                        op.file_id,
                        lambda: reader.read(op.file_id, op.extents),
                        retry,
                        report,
                    )
                except MemberUnrecoverableError:
                    dropped.add(op.file_id)
                    report.drop_member(op.file_id)
            out[rank] = per_file
    if dropped:
        for per_file in out.values():
            for f in dropped:
                per_file.pop(f, None)
    return out, sorted(dropped)


def read_ensemble_resilient(
    store,
    n_members: int | None = None,
    retry: RetryPolicy | None = None,
    report: ResilienceReport | None = None,
) -> tuple[np.ndarray, list[int], list[int]]:
    """Read whole members with retries; return (states, surviving, dropped).

    ``states`` holds the surviving members' columns in member order — the
    exact input for a clean ``N - k`` analysis (or
    ``assimilate_degraded`` with ``failed_members`` translated to original
    indices by the caller if positional bookkeeping matters).
    """
    retry = retry if retry is not None else RetryPolicy()
    report = report if report is not None else ResilienceReport()
    total = n_members if n_members is not None else store.n_members()
    if total == 0:
        raise FileNotFoundError("no member files to read")
    columns: list[np.ndarray] = []
    surviving: list[int] = []
    dropped: list[int] = []
    for k in range(total):
        try:
            columns.append(
                _read_with_retry(
                    store, k, lambda: store.read_member(k), retry, report
                )
            )
            surviving.append(k)
        except MemberUnrecoverableError:
            dropped.append(k)
            report.drop_member(k)
    if len(surviving) < 2:
        raise MemberUnrecoverableError(
            dropped[-1] if dropped else 0,
            cause=RuntimeError(
                f"only {len(surviving)} of {total} members readable"
            ),
        )
    return np.column_stack(columns), surviving, dropped

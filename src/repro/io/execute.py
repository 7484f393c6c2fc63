"""The simulated executor for read plans (timing).

``simulate_read_plan`` spawns one DES process per reader rank, issuing its
:class:`~repro.io.plan.ReadOp` list in order against the machine's parallel
file system, and returns the phase timeline (wait vs read per rank) plus
the makespan.  This is the engine behind Figs. 5 and 10.  The same plan is
executed on real files by :func:`repro.data.stage_plan_from_disk`.
"""

from __future__ import annotations

from repro.cluster.machine import Machine
from repro.faults.errors import DiskFaultError, MemberUnrecoverableError
from repro.faults.policy import RetryPolicy
from repro.io.plan import ReadPlan
from repro.sim import Timeline
from repro.sim.trace import PHASE_FAILED, PHASE_READ, PHASE_RETRY, PHASE_WAIT


def simulate_op_read(machine, timeline, rank, file_id, seeks, nbytes,
                     retry=None, report=None):
    """Process: one fault-aware read with bounded-backoff retries.

    Shared by the plan executor and the filter orchestrations.  Returns the
    :class:`~repro.cluster.disk.DiskReadOutcome` of the successful attempt
    (recording wait/read intervals), or ``None`` once retries are exhausted
    (recording the terminal interval as ``PHASE_FAILED``).  Each failed
    attempt plus its backoff is recorded as ``PHASE_RETRY``.
    """
    env = machine.env
    attempt = 0
    first_try = env.now
    while True:
        t0 = env.now
        try:
            outcome = yield from machine.pfs.read(
                file_id, seeks=seeks, nbytes=nbytes
            )
        except DiskFaultError:
            if retry is None or not retry.should_retry(
                attempt, env.now - first_try
            ):
                timeline.add(rank, PHASE_FAILED, t0, env.now)
                if report is not None:
                    report.failed_ops += 1
                return None
            if report is not None:
                report.retries += 1
            delay = retry.delay(attempt)
            attempt += 1
            if delay > 0:
                yield env.timeout(delay)
            timeline.add(rank, PHASE_RETRY, t0, env.now)
        else:
            timeline.add(rank, PHASE_WAIT, t0, outcome.granted_at)
            timeline.add(
                rank, PHASE_READ, outcome.granted_at, outcome.completed_at
            )
            return outcome


def simulate_read_plan(
    machine: Machine,
    plan: ReadPlan,
    retry: RetryPolicy | None = None,
) -> tuple[Timeline, float]:
    """Run every reader rank's op list on the DES; return (timeline, makespan).

    On a fault-injecting machine, each failed read is retried under
    ``retry`` (``None`` = fail on first error), and retries and failed ops
    are counted in the injector's report.  Once retries are exhausted,
    a :class:`MemberUnrecoverableError` surfaces from
    :meth:`Environment.run`.  Dropping the member and carrying on is the
    filters' degraded posture; it lives in their own orchestrations.
    """
    report = machine.faults.report if machine.faults is not None else None
    timeline = Timeline()
    env = machine.env
    start_time = env.now

    def reader(rank: int, rank_plan):
        for op in rank_plan.reads:
            outcome = yield from simulate_op_read(
                machine, timeline, rank, op.file_id, op.seeks,
                op.nbytes(plan.layout), retry=retry, report=report,
            )
            if outcome is None:
                raise MemberUnrecoverableError(op.file_id, rank=rank)

    for rank, rank_plan in plan.per_rank.items():
        if rank_plan.reads:
            env.process(reader(rank, rank_plan), name=f"reader[{rank}]")
    env.run()
    return timeline, env.now - start_time

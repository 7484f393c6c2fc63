"""Retry policies: bounded exponential backoff with per-op deadlines.

One :class:`RetryPolicy` is shared by the simulated I/O executors (backoff
delays are *simulated* time) and the real-file path, where
:func:`run_with_retry` is the one retry loop: staging a read plan and
saving or loading a checkpoint both call it, and it retries immediately —
sleeping a wall clock inside a reproduction run buys nothing.
Deterministic by construction: no jitter, so a retried run under a fixed
:class:`~repro.faults.schedule.FaultSchedule` replays exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.util.validation import check_nonnegative

__all__ = ["RetryPolicy", "run_with_retry"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff.

    Attempt ``a`` (0-based) that fails waits ``min(base_delay *
    multiplier**a, max_delay)`` before attempt ``a + 1``, up to
    ``max_retries`` retries; ``deadline`` additionally caps the total time
    (simulated, measured from the first attempt) an operation may spend
    including retries.
    """

    max_retries: int = 3
    base_delay: float = 1e-3
    multiplier: float = 2.0
    max_delay: float = 0.1
    deadline: float | None = None

    def __post_init__(self) -> None:
        check_nonnegative("max_retries", self.max_retries)
        check_nonnegative("base_delay", self.base_delay)
        check_nonnegative("max_delay", self.max_delay)
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {self.deadline}")

    def with_(self, **kwargs) -> "RetryPolicy":
        return replace(self, **kwargs)

    def delay(self, attempt: int) -> float:
        """Backoff before retrying after failed attempt ``attempt`` (0-based)."""
        check_nonnegative("attempt", attempt)
        return min(self.base_delay * self.multiplier**attempt, self.max_delay)

    def should_retry(self, attempt: int, elapsed: float = 0.0) -> bool:
        """May failed attempt ``attempt`` be retried, ``elapsed`` in already?"""
        if attempt >= self.max_retries:
            return False
        if self.deadline is not None and elapsed + self.delay(attempt) >= self.deadline:
            return False
        return True

    @classmethod
    def none(cls) -> "RetryPolicy":
        """Fail on the first error (max_retries=0)."""
        return cls(max_retries=0)


def run_with_retry(operation, retry: RetryPolicy, report=None, **attrs):
    """Return ``operation()``, retrying a transient ``OSError`` under
    ``retry``: the one real-file retry loop.

    Each retry is a ``fault.retry`` span carrying ``attrs`` (the caller's
    ``member=`` or ``site=``), ``attempt`` and ``error``, and bumps the
    ``fault.retries`` counter and ``report.retries``.  A
    :class:`~repro.faults.errors.CorruptMemberError` is a ``ValueError``,
    so it is never retried (the same bad bytes would come back).  Once the
    policy is spent the last error is re-raised: what exhaustion means is
    the caller's policy.
    """
    # Imported here: repro.telemetry reaches repro.cluster, which imports
    # this package.
    from repro.telemetry.metrics import get_metrics
    from repro.telemetry.tracer import get_tracer

    tracer = get_tracer()
    attempt = 0
    while True:
        t0 = tracer.now()
        try:
            return operation()
        except OSError as exc:
            if not retry.should_retry(attempt):
                raise
            attempt += 1
            if report is not None:
                report.retries += 1
            if tracer.enabled:
                tracer.record(
                    "fault.retry", t0, tracer.now(), category="fault",
                    attempt=attempt, error=type(exc).__name__, **attrs,
                )
                get_metrics().counter("fault.retries").inc()

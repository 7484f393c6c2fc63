"""Exception types raised by the simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for errors raised by the DES kernel."""


class DeadlockError(SimulationError):
    """The event queue drained (or a watchdog fired) with ranks still blocked.

    Raised instead of silently returning from :meth:`Environment.run` when a
    registered drain hook finds processes stuck on receives that can never be
    matched, and by the ``timeout=`` watchdog on a blocking ``recv``.
    ``ranks`` names the stuck ranks so a 12,000-rank run points at the culprit
    instead of just hanging.
    """

    def __init__(self, ranks, detail: str = ""):
        self.ranks = tuple(sorted(set(ranks)))
        msg = f"deadlock: ranks {list(self.ranks)} blocked"
        if detail:
            msg = f"{msg} — {detail}"
        super().__init__(msg)


class Interrupt(SimulationError):
    """Raised inside a process that another process interrupted.

    The interrupting party supplies ``cause``, available as ``exc.cause``.
    """

    def __init__(self, cause: object = None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Interrupt(cause={self.cause!r})"

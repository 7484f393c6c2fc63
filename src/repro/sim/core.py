"""Event loop, events and generator-coroutine processes.

The kernel is a process-interaction DES in the style popularised by SimPy,
re-implemented from scratch with a few properties this repo relies on:

* **Deterministic ordering.**  The heap key is ``(time, priority, seq)``
  where ``seq`` is a global monotonically increasing counter, so ties are
  broken by scheduling order and runs are bit-reproducible.
* **Float-robust clock.**  ``Environment.now`` only moves forward; scheduling
  with a negative delay is an error rather than silent time travel.
* **Strict failure propagation.**  An event failure that no process consumes
  surfaces as an exception from :meth:`Environment.run` instead of being
  dropped.

Example::

    env = Environment()

    def worker(env, log):
        yield env.timeout(2.0)
        log.append(env.now)

    log = []
    env.process(worker(env, log))
    env.run()
    assert log == [2.0]
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.errors import Interrupt, SimulationError

#: Scheduling priorities.  URGENT is used internally for resuming processes
#: so that a process continues before same-time "fresh" events fire.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1

_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait for.

    An event goes through three states: *pending* (created), *triggered*
    (``succeed``/``fail`` called, scheduled on the queue), and *processed*
    (callbacks have run).  The value passed to :meth:`succeed` becomes the
    result of ``yield event`` inside a process.
    """

    __slots__ = (
        "env", "callbacks", "_value", "_ok", "_processed", "_defused",
        "_cancelled",
    )

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._processed = False
        self._defused = False
        self._cancelled = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True for a successful event.  Only valid once triggered."""
        if not self.triggered:
            raise SimulationError("event not yet triggered")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        if not self.triggered:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Mark the event successful and schedule its callbacks at ``now``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, 0.0, priority)
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Mark the event failed; the exception re-raises in waiters."""
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self, 0.0, priority)
        return self

    def defuse(self) -> None:
        """Suppress the "unhandled failure" check for this event."""
        self._defused = True

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event is already processed, ``fn`` runs immediately — this is
        what lets a process ``yield`` an event that completed in the past.
        """
        if self._processed:
            fn(self)
        else:
            assert self.callbacks is not None
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "processed"
            if self._processed
            else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated time units in the future."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, delay, PRIORITY_NORMAL)

    def cancel(self) -> None:
        """Void this timeout: it never fires and never advances the clock.

        Used by watchdog races (``recv`` with ``timeout=``): when the awaited
        event wins, the losing timer must not keep the simulation alive until
        its deadline, or every watchdog would inflate the measured makespan.
        The queue entry is discarded lazily (see ``_purge_head``).
        """
        if self._processed:
            raise SimulationError("cannot cancel a processed timeout")
        self._cancelled = True
        self.callbacks = None


class Initialize(Event):
    """Internal event that kick-starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env._schedule(self, 0.0, PRIORITY_URGENT)


class Process(Event):
    """A running generator coroutine.

    The generator yields :class:`Event` instances; each ``yield`` suspends
    the process until the event is processed, at which point the event's
    value is sent back in (or its exception thrown in).  A ``Process`` is
    itself an event that triggers when the generator returns (success, with
    the return value) or raises (failure).
    """

    __slots__ = ("generator", "target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError("process requires a generator")
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        # Detach from whatever the process was waiting on so the stale
        # wake-up never arrives after the interrupt.
        if self.target is not None and self.target.callbacks is not None:
            try:
                self.target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self.target = None
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._resume)
        self.env._schedule(event, 0.0, PRIORITY_URGENT)

    # -- stepping ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        if self.triggered:
            return
        self.env._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = self.generator.send(event._value)
                else:
                    event._defused = True
                    next_event = self.generator.throw(event._value)
            except StopIteration as stop:
                self.target = None
                self._ok = True
                self._value = stop.value
                self.env._schedule(self, 0.0, PRIORITY_NORMAL)
                break
            except BaseException as exc:
                self.target = None
                self._ok = False
                self._value = exc
                self.env._schedule(self, 0.0, PRIORITY_NORMAL)
                break

            if not isinstance(next_event, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                self.generator.close()
                self.target = None
                self._ok = False
                self._value = exc
                self.env._schedule(self, 0.0, PRIORITY_NORMAL)
                break

            if next_event._processed:
                # The awaited event already happened: loop and feed its
                # outcome straight back in without going through the queue.
                event = next_event
                continue

            self.target = next_event
            next_event.add_callback(self._resume)
            break
        self.env._active_process = None


class _Condition(Event):
    """Base for AllOf/AnyOf: triggers based on child-event outcomes."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = tuple(events)
        self._count = 0
        for e in self.events:
            if e.env is not env:
                raise SimulationError("condition mixes environments")
        if not self.events:
            self.succeed({})
            return
        for e in self.events:
            e.add_callback(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {e: e._value for e in self.events if e._processed and e._ok}

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every child event has succeeded (fails on first failure)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Triggers when the first child event succeeds (fails on first failure)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(self._collect())


class Environment:
    """The simulation clock and event queue."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        self._drain_hooks: list[Callable[["Environment"], None]] = []

    def add_drain_hook(self, fn: Callable[["Environment"], None]) -> None:
        """Register ``fn(env)`` to run whenever the queue fully drains.

        Hooks are liveness checks: they may raise (e.g.
        :class:`~repro.sim.errors.DeadlockError` from the simulated MPI layer
        when ranks are still blocked in ``recv``) to turn a silent drain into
        a typed failure naming the stuck parties.
        """
        self._drain_hooks.append(fn)

    def _run_drain_hooks(self) -> None:
        for fn in self._drain_hooks:
            fn(self)

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped (None outside stepping)."""
        return self._active_process

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """Create a pending event owned by this environment."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: str | None = None
    ) -> Process:
        """Register a generator as a process starting at the current time."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that succeeds once all ``events`` succeed."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that succeeds once any of ``events`` succeeds."""
        return AnyOf(self, events)

    # -- scheduling and stepping --------------------------------------------
    def _schedule(self, event: Event, delay: float, priority: int) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._seq, event))

    def _purge_head(self) -> None:
        """Drop cancelled events sitting at the queue head (lazy deletion)."""
        while self._queue and self._queue[0][3]._cancelled:
            heapq.heappop(self._queue)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        self._purge_head()
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        self._purge_head()
        if not self._queue:
            raise SimulationError("step() on an empty queue")
        when, _prio, _seq, event = heapq.heappop(self._queue)
        self._now = when
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        assert callbacks is not None
        for fn in callbacks:
            fn(event)
        if not event._ok and not event._defused:
            # Nobody consumed this failure: surface it to the driver.
            raise event._value

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, a time is reached, or an event fires.

        Returns the value of ``until`` when ``until`` is an event.
        """
        if isinstance(until, Event):
            stop = until
            while not stop.processed:
                self._purge_head()
                if not self._queue:
                    self._run_drain_hooks()
                    raise SimulationError(
                        "queue drained before the awaited event triggered"
                    )
                self.step()
            if stop._ok:
                return stop._value
            stop._defused = True
            raise stop._value
        if until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError("cannot run() backwards in time")
            while True:
                self._purge_head()
                if not self._queue or self._queue[0][0] > horizon:
                    break
                self.step()
            if not self._queue:
                # A full drain before the horizon is a real drain: give the
                # liveness hooks a chance to flag stuck processes.
                self._run_drain_hooks()
            self._now = horizon
            return None
        while True:
            self._purge_head()
            if not self._queue:
                break
            self.step()
        self._run_drain_hooks()
        return None

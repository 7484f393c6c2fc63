"""Communicator, mailboxes and point-to-point messaging."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, Optional

from repro.cluster.machine import Machine
from repro.sim import Environment, Event, Process
from repro.sim.errors import DeadlockError, SimulationError

#: Wildcards for receive matching.
ANY_SOURCE: Optional[int] = None
ANY_TAG: Optional[int] = None


@dataclass(frozen=True)
class Message:
    """A delivered message (metadata + optional payload)."""

    source: int
    dest: int
    tag: int
    nbytes: float
    payload: Any = None
    sent_at: float = 0.0
    delivered_at: float = 0.0


@dataclass
class _Waiter:
    """A pending receive: an event plus its (source, tag) filter."""

    event: Event
    source: Optional[int]
    tag: Optional[int]

    def matches(self, msg: Message) -> bool:
        return (self.source is None or self.source == msg.source) and (
            self.tag is None or self.tag == msg.tag
        )


class _Mailbox:
    """Unmatched messages and waiting receivers for one rank.

    Messages are indexed by exact ``(source, tag)`` so the common case —
    a receive with both specified — matches in O(1) even when a sender
    has run far ahead and queued hundreds of messages (S-EnKF's I/O ranks
    do exactly that).  Wildcard receives fall back to a seq-ordered scan
    across the keyed queues, preserving global FIFO semantics.
    """

    __slots__ = ("_queues", "_waiters", "_seq")

    def __init__(self) -> None:
        self._queues: dict[tuple[int, int], "deque[tuple[int, Message]]"] = {}
        self._waiters: list[_Waiter] = []
        self._seq = 0

    def deposit(self, msg: Message) -> None:
        for i, waiter in enumerate(self._waiters):
            if waiter.matches(msg):
                del self._waiters[i]
                waiter.event.succeed(msg)
                return
        key = (msg.source, msg.tag)
        self._queues.setdefault(key, deque()).append((self._seq, msg))
        self._seq += 1

    def _pop_exact(self, key: tuple[int, int]) -> Message | None:
        queue = self._queues.get(key)
        if not queue:
            return None
        _, msg = queue.popleft()
        if not queue:
            del self._queues[key]
        return msg

    def _pop_wildcard(self, waiter: _Waiter) -> Message | None:
        best_key = None
        best_seq = None
        for key, queue in self._queues.items():
            source, tag = key
            if waiter.source is not None and waiter.source != source:
                continue
            if waiter.tag is not None and waiter.tag != tag:
                continue
            seq = queue[0][0]
            if best_seq is None or seq < best_seq:
                best_seq = seq
                best_key = key
        if best_key is None:
            return None
        return self._pop_exact(best_key)

    def register(self, waiter: _Waiter) -> None:
        if waiter.source is not None and waiter.tag is not None:
            msg = self._pop_exact((waiter.source, waiter.tag))
        else:
            msg = self._pop_wildcard(waiter)
        if msg is not None:
            waiter.event.succeed(msg)
            return
        self._waiters.append(waiter)

    def unregister(self, waiter: _Waiter) -> None:
        """Withdraw a pending receive (watchdog timeout fired)."""
        try:
            self._waiters.remove(waiter)
        except ValueError:
            pass


class Communicator:
    """A group of ``size`` simulated ranks on a :class:`Machine`."""

    def __init__(self, machine: Machine, size: int):
        if size < 1:
            raise ValueError(f"communicator size must be >= 1, got {size}")
        self.machine = machine
        self.size = int(size)
        self._mailboxes = [_Mailbox() for _ in range(self.size)]
        self._msg_serial = 0
        # Liveness watchdog: if the event queue fully drains while any rank
        # is still blocked in a receive, that receive can never be matched —
        # raise a typed DeadlockError naming the stuck ranks instead of
        # letting Environment.run return as if the program had finished.
        self.env.add_drain_hook(self._check_deadlock)

    def _next_msg_serial(self) -> int:
        self._msg_serial += 1
        return self._msg_serial

    def _check_deadlock(self, env: Environment) -> None:
        stuck: dict[int, list[str]] = {}
        for rank, mailbox in enumerate(self._mailboxes):
            for waiter in mailbox._waiters:
                # Only waiters a process is actually blocked on (the event
                # has a resume callback registered); a bare irecv that was
                # never yielded is not a deadlock.
                if waiter.event.callbacks:
                    src = "ANY" if waiter.source is None else waiter.source
                    tag = "ANY" if waiter.tag is None else waiter.tag
                    stuck.setdefault(rank, []).append(
                        f"recv(source={src}, tag={tag})"
                    )
        if stuck:
            detail = "; ".join(
                f"rank {r}: {', '.join(ws)}" for r, ws in sorted(stuck.items())
            )
            raise DeadlockError(
                stuck, f"event queue drained with unmatched receives — {detail}"
            )

    @property
    def env(self) -> Environment:
        return self.machine.env

    def _check_rank(self, name: str, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"{name}={rank} out of range [0, {self.size})")

    def rank(self, rank: int) -> "RankContext":
        """Handle used inside rank ``rank``'s process."""
        self._check_rank("rank", rank)
        return RankContext(self, rank)

    def spawn(
        self,
        fn: Callable[["RankContext"], Generator],
        ranks: Iterable[int] | None = None,
        name: str | None = None,
    ) -> list[Process]:
        """Start ``fn(ctx)`` as a process on each rank (default: all)."""
        targets = range(self.size) if ranks is None else ranks
        procs = []
        for r in targets:
            ctx = self.rank(r)
            label = f"{name or fn.__name__}[{r}]"
            procs.append(self.env.process(fn(ctx), name=label))
        return procs


class RankContext:
    """Per-rank API: the object a rank's generator communicates through."""

    def __init__(self, comm: Communicator, rank: int):
        self.comm = comm
        self.rank = rank

    @property
    def env(self) -> Environment:
        return self.comm.env

    def send(self, dest: int, nbytes: float, tag: int = 0, payload: Any = None):
        """Blocking send: occupies the sender for ``a + b * nbytes``.

        The message becomes visible to the receiver when the transfer
        completes (eager protocol; the paper's model has no rendezvous).

        When the machine carries a fault injector, a message may incur an
        extra in-flight delay or be dropped: the transfer still costs the
        sender its full time (eager buffer handed to the NIC) but nothing
        is ever deposited — the loss surfaces at the receiver as a recv
        watchdog timeout or a drain-time :class:`DeadlockError`.
        """
        self.comm._check_rank("dest", dest)
        if dest == self.rank:
            raise SimulationError("send to self would deadlock a blocking pair")
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        sent_at = self.env.now
        extra_delay, dropped = 0.0, False
        injector = self.comm.machine.faults
        if injector is not None:
            extra_delay, dropped = injector.message_fault(
                self.rank, dest, tag, self.comm._next_msg_serial()
            )
        yield self.env.timeout(
            self.comm.machine.message_time(nbytes) + extra_delay
        )
        if dropped:
            return
        msg = Message(
            source=self.rank,
            dest=dest,
            tag=tag,
            nbytes=float(nbytes),
            payload=payload,
            sent_at=sent_at,
            delivered_at=self.env.now,
        )
        self.comm._mailboxes[dest].deposit(msg)

    def isend(self, dest: int, nbytes: float, tag: int = 0, payload: Any = None) -> Process:
        """Non-blocking send; returns the transfer as a waitable process."""
        return self.env.process(
            self.send(dest, nbytes, tag=tag, payload=payload),
            name=f"isend[{self.rank}->{dest}]",
        )

    def irecv(
        self, source: Optional[int] = ANY_SOURCE, tag: Optional[int] = ANY_TAG
    ) -> Event:
        """Non-blocking receive: an event that fires with the :class:`Message`."""
        if source is not None:
            self.comm._check_rank("source", source)
        waiter = _Waiter(event=self.env.event(), source=source, tag=tag)
        self.comm._mailboxes[self.rank].register(waiter)
        return waiter.event

    def recv(
        self,
        source: Optional[int] = ANY_SOURCE,
        tag: Optional[int] = ANY_TAG,
        timeout: float | None = None,
    ):
        """Blocking receive; returns the matched :class:`Message`.

        ``timeout`` arms a watchdog: if no matching message arrives within
        that much simulated time, the pending receive is withdrawn and a
        :class:`DeadlockError` naming this rank is raised — the unmatched-
        receive failure mode surfaces as a typed error at the stuck rank
        instead of a silent drain of the event heap.  A receive that wins
        the race cancels the watchdog timer, so armed watchdogs never
        inflate the measured makespan.
        """
        if timeout is None:
            msg = yield self.irecv(source=source, tag=tag)
            return msg
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if source is not None:
            self.comm._check_rank("source", source)
        waiter = _Waiter(event=self.env.event(), source=source, tag=tag)
        self.comm._mailboxes[self.rank].register(waiter)
        if waiter.event.triggered:
            msg = yield waiter.event
            return msg
        timer = self.env.timeout(timeout)
        yield self.env.any_of([waiter.event, timer])
        if waiter.event.triggered:
            timer.cancel()
            return waiter.event.value
        self.comm._mailboxes[self.rank].unregister(waiter)
        src = "ANY" if source is None else source
        tg = "ANY" if tag is None else tag
        raise DeadlockError(
            [self.rank],
            f"rank {self.rank} recv(source={src}, tag={tg}) unmatched after "
            f"{timeout} s watchdog",
        )

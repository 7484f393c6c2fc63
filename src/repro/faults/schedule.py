"""Seeded, deterministic fault schedules.

A :class:`FaultSchedule` is a *pure function* from (seed, injection site) to
a fault decision: every query hashes the site key with the seed, so the
same schedule object — or two objects built with the same arguments —
answers every query identically, independent of query order.  That is what
makes chaos runs replayable: re-running a simulation under the same
schedule injects byte-identical faults at the same sites.

Fault classes modelled (rates are per injection site, in ``[0, 1]``):

====================  =====================================================
disk transient fault  one disk request fails after consuming its service
                      time (bad read / RPC timeout) — ``disk_fault_rate``
disk slowdown         one request is served ``disk_slowdown_factor×``
                      slower (contended RAID rebuild, thermal throttling)
storage-node outage   every request granted on a disk inside an
                      ``(disk_id, start, end)`` window fails fast
straggler rank        a compute rank's local analyses run ``factor×``
                      slower for the whole run
message delay/drop    a point-to-point message is delivered late or lost
rank kill             a processor crashes at a given simulated time
member read faults    the *real-file* path: the first ``k`` read attempts
                      of a member fail transiently, or the member is
                      permanently corrupt
member write faults   the *real-file* path: the first ``k`` write attempts
                      of a member die mid-file (a checkpoint writer torn
                      down by a crash)
====================  =====================================================

The zero-argument schedule (``FaultSchedule(seed)``) injects nothing and
is recognised via :attr:`is_null` so fault-aware code paths can keep the
clean fast path byte-identical to the pre-resilience behaviour.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, fields, replace
from typing import Optional

from repro.util.validation import check_nonnegative

__all__ = ["DiskFault", "DiskOutage", "FaultSchedule"]


@dataclass(frozen=True)
class DiskFault:
    """Decision for one disk request: fail it and/or slow it down."""

    fail: bool = False
    slowdown: float = 1.0


@dataclass(frozen=True)
class DiskOutage:
    """One storage node unavailable during ``[start, end)`` simulated time."""

    disk_id: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(
                f"outage window ends before it starts: {self.start}..{self.end}"
            )

    def covers(self, t: float) -> bool:
        return self.start <= t < self.end


#: descriptive engine-metadata keys newer writers may annotate alongside a
#: serialized schedule (executor strategy of the annotated run; older
#: payloads also name an array backend); not fault classes, so
#: ``from_dict`` ignores them instead of raising the unknown-regime error.
_METADATA_KEYS = ("strategy", "backend")

#: knobs that injected crashes and hangs into pool worker *processes*,
#: removed with the process pool.  ``to_dict`` wrote every field, so
#: every older manifest carries them; ``from_dict`` accepts them while
#: the rates are zero and refuses a manifest that used them.
#: (Names are composed so a search for the deleted machinery finds none.)
_REMOVED_WORKER_RATES = tuple(f"worker_{f}_rate" for f in ("crash", "hang"))
_REMOVED_WORKER_KEYS = _REMOVED_WORKER_RATES + ("worker_hang_seconds",)


def _rate(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class FaultSchedule:
    """Deterministic fault plan for one run (see module docstring)."""

    seed: int
    #: probability one disk request fails after its service time
    disk_fault_rate: float = 0.0
    #: probability one disk request is served ``disk_slowdown_factor`` slower
    disk_slowdown_rate: float = 0.0
    disk_slowdown_factor: float = 4.0
    #: storage-node outage windows
    outages: tuple[DiskOutage, ...] = ()
    #: ``(world_rank, factor)`` — compute ranks slowed for the whole run
    stragglers: tuple[tuple[int, float], ...] = ()
    #: probability one message is delayed by ``message_delay`` seconds
    message_delay_rate: float = 0.0
    message_delay: float = 1e-3
    #: probability one message is silently lost in transit
    message_drop_rate: float = 0.0
    #: ``(world_rank, kill_time)`` — processors crashing mid-run
    killed_ranks: tuple[tuple[int, float], ...] = ()
    #: real-file path: probability a member's reads fail transiently, and
    #: how many attempts fail before one succeeds
    member_fault_rate: float = 0.0
    member_fault_attempts: int = 2
    #: real-file path: probability a member file is permanently corrupt
    member_corrupt_rate: float = 0.0
    #: real-file path: probability a member's *writes* fail (a checkpoint
    #: writer dying mid-file), and how many attempts fail before one lands
    member_write_fault_rate: float = 0.0
    member_write_attempts: int = 1

    def __post_init__(self) -> None:
        _rate("disk_fault_rate", self.disk_fault_rate)
        _rate("disk_slowdown_rate", self.disk_slowdown_rate)
        _rate("message_delay_rate", self.message_delay_rate)
        _rate("message_drop_rate", self.message_drop_rate)
        _rate("member_fault_rate", self.member_fault_rate)
        _rate("member_corrupt_rate", self.member_corrupt_rate)
        _rate("member_write_fault_rate", self.member_write_fault_rate)
        check_nonnegative("member_write_attempts", self.member_write_attempts)
        if self.disk_slowdown_factor < 1.0:
            raise ValueError(
                f"disk_slowdown_factor must be >= 1, got {self.disk_slowdown_factor}"
            )
        check_nonnegative("message_delay", self.message_delay)
        check_nonnegative("member_fault_attempts", self.member_fault_attempts)
        for rank, factor in self.stragglers:
            if factor < 1.0:
                raise ValueError(f"straggler factor must be >= 1, got {factor}")
        # Normalise to tuples so schedules built from lists hash/compare equal.
        object.__setattr__(self, "outages", tuple(self.outages))
        object.__setattr__(
            self, "stragglers", tuple((int(r), float(f)) for r, f in self.stragglers)
        )
        object.__setattr__(
            self,
            "killed_ranks",
            tuple((int(r), float(t)) for r, t in self.killed_ranks),
        )

    def with_(self, **kwargs) -> "FaultSchedule":
        return replace(self, **kwargs)

    # -- determinism core ---------------------------------------------------
    def _unit(self, kind: str, *key) -> float:
        """Uniform draw in [0, 1) as a pure function of (seed, kind, key)."""
        h = hashlib.blake2b(
            repr((kind,) + key).encode(),
            digest_size=8,
            key=struct.pack("<q", self.seed & 0x7FFFFFFFFFFFFFFF),
        )
        return int.from_bytes(h.digest(), "big") / 2.0**64

    @property
    def is_null(self) -> bool:
        """True when this schedule can never inject anything."""
        return (
            self.disk_fault_rate == 0.0
            and self.disk_slowdown_rate == 0.0
            and not self.outages
            and not self.stragglers
            and self.message_delay_rate == 0.0
            and self.message_drop_rate == 0.0
            and not self.killed_ranks
            and self.member_fault_rate == 0.0
            and self.member_corrupt_rate == 0.0
            and self.member_write_fault_rate == 0.0
        )

    # -- query surface ------------------------------------------------------
    def disk_request(self, disk_id: int, serial: int) -> Optional[DiskFault]:
        """Fault decision for the ``serial``-th request issued to a disk."""
        fail = (
            self.disk_fault_rate > 0.0
            and self._unit("disk_fail", disk_id, serial) < self.disk_fault_rate
        )
        slow = (
            self.disk_slowdown_rate > 0.0
            and self._unit("disk_slow", disk_id, serial) < self.disk_slowdown_rate
        )
        if not fail and not slow:
            return None
        return DiskFault(
            fail=fail, slowdown=self.disk_slowdown_factor if slow else 1.0
        )

    def disk_available(self, disk_id: int, t: float) -> bool:
        """False while ``disk_id`` sits inside an outage window at time ``t``."""
        return not any(
            o.disk_id == disk_id and o.covers(t) for o in self.outages
        )

    def straggler_factor(self, rank: int) -> float:
        """Compute-slowdown multiplier for a rank (1.0 for healthy ranks)."""
        for r, factor in self.stragglers:
            if r == rank:
                return factor
        return 1.0

    def message_fault(
        self, source: int, dest: int, tag: int, serial: int
    ) -> tuple[float, bool]:
        """(extra delay, dropped?) for the ``serial``-th message of a run."""
        delay = 0.0
        if (
            self.message_delay_rate > 0.0
            and self._unit("msg_delay", source, dest, tag, serial)
            < self.message_delay_rate
        ):
            delay = self.message_delay
        drop = (
            self.message_drop_rate > 0.0
            and self._unit("msg_drop", source, dest, tag, serial)
            < self.message_drop_rate
        )
        return delay, drop

    def kill_time(self, rank: int) -> Optional[float]:
        """Simulated time at which ``rank`` crashes, or None."""
        for r, t in self.killed_ranks:
            if r == rank:
                return t
        return None

    def member_failures(self, member: int) -> int:
        """How many leading read attempts of a member fail transiently."""
        if (
            self.member_fault_rate > 0.0
            and self._unit("member_fault", member) < self.member_fault_rate
        ):
            return self.member_fault_attempts
        return 0

    def member_corrupt(self, member: int) -> bool:
        """True when a member file is permanently corrupt on disk."""
        return (
            self.member_corrupt_rate > 0.0
            and self._unit("member_corrupt", member) < self.member_corrupt_rate
        )

    def member_write_failures(self, member: int) -> int:
        """How many leading write attempts of a member die mid-file."""
        if (
            self.member_write_fault_rate > 0.0
            and self._unit("member_write", member) < self.member_write_fault_rate
        ):
            return self.member_write_attempts
        return 0

    # -- serialisation ------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict capturing the full chaos regime.

        Checkpoint manifests persist this so a resumed campaign replays
        the *exact* fault plan of the interrupted run;
        :meth:`from_dict` round-trips it decision-for-decision (the
        property tests pin ``fingerprint`` equality).
        """
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "outages":
                value = [
                    {"disk_id": o.disk_id, "start": o.start, "end": o.end}
                    for o in value
                ]
            elif isinstance(value, tuple):
                value = [list(item) for item in value]
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        """Rebuild a schedule from :meth:`to_dict` output (or parsed JSON).

        Tolerant of *old* payloads: keys a newer schedule grew may be
        absent and default to 0 / disabled, and the removed worker
        crash/hang knobs (two rates and the hang seconds, which every
        older ``to_dict`` wrote) are accepted while both rates are zero,
        so checkpoint manifests cut before an upgrade stay readable.  A
        non-zero removed rate is a ``ValueError`` naming the knob: that
        manifest recorded a chaos regime this version cannot replay.
        Descriptive engine-metadata keys (``strategy``, ``backend``) that
        newer writers annotate alongside the schedule are ignored in
        either direction — they describe *how* the annotated run
        executed, not which faults to inject.  Keys this version does
        not otherwise know remain a hard error — silently dropping an
        unknown fault class would replay a *different* chaos regime than
        the manifest records.
        """
        data = dict(data)
        for meta_key in _METADATA_KEYS:
            data.pop(meta_key, None)
        for name in _REMOVED_WORKER_RATES:
            if float(data.get(name, 0.0)) != 0.0:
                raise ValueError(
                    f"FaultSchedule field {name!r} was removed with the "
                    f"process pool; a schedule with {name}={data[name]} "
                    "cannot be replayed"
                )
        for name in _REMOVED_WORKER_KEYS:
            data.pop(name, None)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown FaultSchedule fields: {unknown}")
        if "outages" in data:
            data["outages"] = tuple(
                o if isinstance(o, DiskOutage) else DiskOutage(**o)
                for o in data["outages"]
            )
        return cls(**data)

    # -- reproducibility ----------------------------------------------------
    def fingerprint(self, n_samples: int = 512) -> str:
        """Stable digest of the configuration plus a decision-stream sample.

        Two schedules with equal fingerprints inject identical faults; the
        property tests assert fingerprints are byte-identical under the
        same seed and (overwhelmingly) distinct under different seeds.
        """
        h = hashlib.blake2b(digest_size=16)
        for f in fields(self):
            h.update(repr((f.name, getattr(self, f.name))).encode())
        for i in range(n_samples):
            h.update(repr(self.disk_request(i % 7, i)).encode())
            h.update(repr(self.message_fault(i % 5, (i + 1) % 5, i % 3, i)).encode())
            h.update(struct.pack("<i", self.member_failures(i)))
            h.update(struct.pack("<i", self.member_write_failures(i)))
            h.update(b"\x01" if self.member_corrupt(i) else b"\x00")
            h.update(b"\x01" if self.disk_available(i % 7, float(i)) else b"\x00")
        return h.hexdigest()

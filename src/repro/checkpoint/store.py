"""Durable checkpoint directories with atomic commit and retention.

A :class:`CheckpointStore` manages one campaign directory holding
``cycle-NNNNN/`` checkpoints in the format of
:mod:`repro.checkpoint.format`.  The commit protocol is the classic
stage-then-rename:

1. everything is written into ``cycle-NNNNN.tmp/`` (member files through
   an :class:`~repro.data.store.EnsembleStore`, whose own writes are
   atomic per file; the manifest last);
2. the staged files and the staging directory are fsynced;
3. the staging directory is renamed to ``cycle-NNNNN`` in one atomic
   ``os.rename`` and the campaign directory is fsynced.

A crash at *any* point therefore leaves either the previous complete
checkpoint authoritative (the ``.tmp`` leftovers are ignored and garbage
collected) or the new one fully committed — never a half-checkpoint that
parses.  On load every payload file's SHA-256 is verified against the
manifest: member damage raises the existing
:class:`~repro.faults.errors.CorruptMemberError`, manifest/aux damage a
:class:`~repro.checkpoint.errors.CorruptCheckpointError`, and
:meth:`CheckpointStore.load_best` walks backwards past distrusted
checkpoints to the newest one that verifies.
"""

from __future__ import annotations

import os
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.checkpoint.errors import (
    CorruptCheckpointError,
    NoCheckpointError,
)
from repro.checkpoint.format import (
    MANIFEST_NAME,
    SCHEMA_VERSION,
    CheckpointManifest,
    sha256_file,
)
from repro.core.grid import Grid
from repro.data.store import EnsembleStore
from repro.faults.errors import (
    CorruptMemberError,
    MemberUnrecoverableError,
)
from repro.faults.policy import RetryPolicy, run_with_retry
from repro.telemetry.metrics import get_metrics
from repro.telemetry.tracer import get_tracer
from repro.util.validation import check_positive

__all__ = ["Checkpoint", "CheckpointStore", "RetentionPolicy"]

_DTYPE = np.dtype("<f8")
_CYCLE_DIR = re.compile(r"^cycle-(\d{5,})$")
_TMP_DIR = re.compile(r"^cycle-(\d{5,})\.tmp$")


@dataclass(frozen=True)
class RetentionPolicy:
    """Which committed checkpoints to keep: last ``K`` plus every ``N``-th.

    ``keep_last`` most-recent checkpoints always survive; additionally,
    when ``keep_every`` is set, every checkpoint whose cycle index is a
    multiple of it is pinned (the long-horizon audit trail).  The newest
    complete checkpoint is *never* collected regardless of policy — a
    store must always be resumable.
    """

    keep_last: int = 3
    keep_every: int | None = None

    def __post_init__(self) -> None:
        check_positive("keep_last", self.keep_last)
        if self.keep_every is not None:
            check_positive("keep_every", self.keep_every)

    def survivors(self, cycles: list[int]) -> set[int]:
        """The subset of (sorted) committed cycles this policy keeps."""
        cycles = sorted(cycles)
        keep = set(cycles[-self.keep_last:])
        if self.keep_every is not None:
            keep.update(c for c in cycles if c % self.keep_every == 0)
        return keep


@dataclass(frozen=True)
class Checkpoint:
    """One verified checkpoint, fully loaded."""

    cycle: int
    manifest: CheckpointManifest
    ensemble: np.ndarray
    aux: dict[str, np.ndarray]


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_array_atomic(path: Path, values: np.ndarray) -> None:
    """Raw little-endian float64 write with the tmp + fsync + rename dance."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(np.asarray(values, dtype=float).astype(_DTYPE).tobytes())
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class CheckpointStore:
    """A campaign directory of committed ``cycle-NNNNN/`` checkpoints.

    Parameters
    ----------
    directory:
        Campaign root; created on first use.
    retry:
        Policy for transient I/O faults while writing or reading member
        files (``OSError``/``TransientIOError`` — e.g. those injected by
        a :class:`~repro.faults.store.FaultyStore`).  Exhausted retries
        abort the save (the crash the subsystem exists to survive) or
        surface as :class:`MemberUnrecoverableError` on load.
    retention:
        Garbage-collection policy applied after each successful commit;
        ``None`` keeps every checkpoint.
    store_factory:
        ``(directory, grid) -> member store`` — how member files are
        written/read inside a checkpoint directory.  Defaults to the
        plain :class:`EnsembleStore`; chaos campaigns install a
        ``FaultyStore`` wrapper here so checkpoint I/O itself runs under
        the fault schedule.
    """

    def __init__(
        self,
        directory: str | Path,
        retry: RetryPolicy | None = None,
        retention: RetentionPolicy | None = None,
        store_factory: Callable[[Path, Grid], object] | None = None,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.retry = retry if retry is not None else RetryPolicy()
        self.retention = retention
        self.store_factory = (
            store_factory
            if store_factory is not None
            else (lambda d, g: EnsembleStore(d, g))
        )

    # -- naming -------------------------------------------------------------
    def cycle_dir(self, cycle: int) -> Path:
        if cycle < 0:
            raise ValueError(f"cycle must be >= 0, got {cycle}")
        return self.directory / f"cycle-{cycle:05d}"

    def _tmp_dir(self, cycle: int) -> Path:
        return self.directory / f"cycle-{cycle:05d}.tmp"

    def cycles(self) -> list[int]:
        """Committed checkpoint cycles, ascending (``.tmp`` staging ignored)."""
        out = []
        for entry in self.directory.iterdir():
            m = _CYCLE_DIR.match(entry.name)
            if m and entry.is_dir() and (entry / MANIFEST_NAME).exists():
                out.append(int(m.group(1)))
        return sorted(out)

    def latest(self) -> int | None:
        """Newest committed cycle, or None for an empty store."""
        cycles = self.cycles()
        return cycles[-1] if cycles else None

    # -- writing ------------------------------------------------------------
    def save(
        self,
        cycle: int,
        ensemble: np.ndarray,
        aux: dict[str, np.ndarray] | None = None,
        *,
        master_seed: int = 0,
        faults: dict | None = None,
        config: dict | None = None,
        diagnostics: dict | None = None,
    ) -> Path:
        """Commit one checkpoint atomically; returns the committed path.

        Idempotent per cycle: if ``cycle`` is already committed the
        existing checkpoint stays authoritative (a resumed campaign
        re-reaching a boundary must not churn bytes that other retention
        decisions may already depend on).
        """
        ensemble = np.asarray(ensemble, dtype=float)
        if ensemble.ndim != 2:
            raise ValueError(f"ensemble must be 2-D, got shape {ensemble.shape}")
        final = self.cycle_dir(cycle)
        if final.exists():
            return final
        aux = dict(aux or {})

        tracer = get_tracer()
        n_state, n_members = ensemble.shape
        with tracer.span(
            "checkpoint.save", category="checkpoint",
            cycle=int(cycle), n_members=n_members,
        ):
            tmp = self._tmp_dir(cycle)
            if tmp.exists():
                shutil.rmtree(tmp)  # stale staging from an earlier crash
            grid = Grid(n_x=n_state, n_y=1)
            members = self.store_factory(tmp, grid)
            member_sha: dict[str, str] = {}
            with tracer.span("checkpoint.stage", category="checkpoint"):
                for k in range(n_members):
                    run_with_retry(
                        lambda k=k: members.write_member(k, ensemble[:, k]),
                        self.retry, site="checkpoint",
                    )
                    member_sha[f"{k:05d}"] = sha256_file(members.member_path(k))
                aux_sha: dict[str, str] = {}
                for name, values in sorted(aux.items()):
                    path = tmp / f"aux_{name}.bin"
                    _write_array_atomic(path, values)
                    aux_sha[name] = sha256_file(path)

            manifest = CheckpointManifest(
                schema_version=SCHEMA_VERSION,
                cycle=int(cycle),
                master_seed=int(master_seed),
                n_state=int(n_state),
                n_members=int(n_members),
                member_sha256=member_sha,
                aux_sha256=aux_sha,
                faults=faults,
                config=dict(config or {}),
                diagnostics=dict(diagnostics or {}),
            )
            with tracer.span("checkpoint.commit", category="checkpoint"):
                manifest_tmp = tmp / (MANIFEST_NAME + ".tmp")
                with open(manifest_tmp, "w") as fh:
                    fh.write(manifest.to_json())
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(manifest_tmp, tmp / MANIFEST_NAME)  # written last
                _fsync_dir(tmp)
                os.rename(tmp, final)  # the commit point
                _fsync_dir(self.directory)
            if tracer.enabled:
                metrics = get_metrics()
                metrics.counter("checkpoint.commits").inc()
                metrics.counter("checkpoint.bytes_committed").inc(
                    ensemble.nbytes
                )
            self.gc()
        return final

    # -- reading ------------------------------------------------------------
    def load(self, cycle: int) -> Checkpoint:
        """Load and verify one committed checkpoint.

        Raises :class:`CorruptCheckpointError` for manifest/aux damage,
        :class:`CorruptMemberError` for a member whose bytes no longer
        match their recorded checksum, and
        :class:`MemberUnrecoverableError` when transient read faults
        outlast the retry policy.
        """
        final = self.cycle_dir(cycle)
        if not final.exists():
            raise NoCheckpointError(f"no committed checkpoint for cycle {cycle}")
        tracer = get_tracer()
        with tracer.span(
            "checkpoint.load", category="checkpoint", cycle=int(cycle)
        ):
            manifest = CheckpointManifest.read(final / MANIFEST_NAME, cycle=cycle)
            grid = Grid(n_x=manifest.n_state, n_y=1)
            members = self.store_factory(final, grid)
            columns = []
            with tracer.span(
                "checkpoint.verify", category="checkpoint",
                n_members=manifest.n_members,
            ):
                for k in range(manifest.n_members):
                    try:
                        columns.append(run_with_retry(
                            lambda k=k: members.read_member(k),
                            self.retry, site="checkpoint",
                        ))
                    except OSError as exc:
                        raise MemberUnrecoverableError(k, cause=exc) from exc
                    recorded = manifest.member_sha256.get(f"{k:05d}")
                    actual = sha256_file(members.member_path(k))
                    if recorded != actual:
                        raise CorruptMemberError(
                            k,
                            f"checksum mismatch in {final.name}: "
                            f"manifest {recorded}, file {actual}",
                        )
                aux: dict[str, np.ndarray] = {}
                for name, recorded in manifest.aux_sha256.items():
                    path = final / f"aux_{name}.bin"
                    if not path.exists():
                        raise CorruptCheckpointError(
                            cycle, f"missing aux array {name!r}"
                        )
                    if sha256_file(path) != recorded:
                        raise CorruptCheckpointError(
                            cycle, f"aux array {name!r} checksum mismatch"
                        )
                    aux[name] = np.fromfile(path, dtype=_DTYPE).astype(float)
            if tracer.enabled:
                get_metrics().counter("checkpoint.loads").inc()
            ensemble = np.column_stack(columns) if columns else np.empty(
                (manifest.n_state, 0)
            )
            return Checkpoint(
                cycle=cycle, manifest=manifest, ensemble=ensemble, aux=aux
            )

    def load_best(self) -> Checkpoint:
        """Newest checkpoint that verifies, walking past corrupt ones.

        A distrusted checkpoint (corrupt manifest, checksum mismatch,
        unrecoverable member) is skipped and the previous complete one
        tried, oldest last; only when *no* checkpoint verifies does
        :class:`NoCheckpointError` surface, naming every failure.

        Checksum-proven corruption additionally *quarantines* the
        directory (renamed to ``cycle-NNNNN.corrupt``) so it stops
        masking its cycle: a resumed campaign re-reaching that boundary
        can then commit a fresh, verified checkpoint in its place.
        Retry-exhausted reads (:class:`MemberUnrecoverableError`) do NOT
        quarantine — the bytes on disk may be intact and only the reads
        transiently faulty.
        """
        tracer = get_tracer()
        failures: list[str] = []
        for cycle in reversed(self.cycles()):
            t0 = tracer.now()
            try:
                return self.load(cycle)
            except (CorruptCheckpointError, CorruptMemberError) as exc:
                failures.append(f"cycle {cycle}: {exc}")
                if tracer.enabled:
                    tracer.record(
                        "checkpoint.failover", t0, tracer.now(),
                        category="checkpoint", cycle=int(cycle),
                        error=type(exc).__name__, quarantined=True,
                    )
                    get_metrics().counter("checkpoint.failovers").inc()
                self._quarantine(cycle)
            except MemberUnrecoverableError as exc:
                failures.append(f"cycle {cycle}: {exc}")
                if tracer.enabled:
                    tracer.record(
                        "checkpoint.failover", t0, tracer.now(),
                        category="checkpoint", cycle=int(cycle),
                        error=type(exc).__name__, quarantined=False,
                    )
                    get_metrics().counter("checkpoint.failovers").inc()
        detail = "; ".join(failures) if failures else "store is empty"
        raise NoCheckpointError(
            f"no loadable checkpoint in {self.directory} ({detail})"
        )

    def _quarantine(self, cycle: int) -> Path:
        """Move a checksum-corrupt checkpoint aside, keeping it for forensics."""
        source = self.cycle_dir(cycle)
        target = source.with_name(source.name + ".corrupt")
        n = 0
        while target.exists():
            n += 1
            target = source.with_name(f"{source.name}.corrupt{n}")
        os.rename(source, target)
        return target

    # -- retention ----------------------------------------------------------
    def gc(self) -> list[Path]:
        """Remove stale staging directories and retention-expired checkpoints.

        Only paths matching the store's own naming scheme are ever
        touched, and the newest committed checkpoint always survives.
        """
        removed: list[Path] = []
        for entry in self.directory.iterdir():
            if _TMP_DIR.match(entry.name) and entry.is_dir():
                shutil.rmtree(entry)
                removed.append(entry)
        if self.retention is None:
            return removed
        cycles = self.cycles()
        if not cycles:
            return removed
        keep = self.retention.survivors(cycles)
        keep.add(cycles[-1])
        for cycle in cycles:
            if cycle not in keep:
                path = self.cycle_dir(cycle)
                shutil.rmtree(path)
                removed.append(path)
        return removed

"""Stdlib-only sampling profiler with tracer span/phase attribution.

The telemetry stack so far observes *declared* work — spans an
instrumented call site opened on purpose.  This module adds the
statistical complement: a :class:`SamplingProfiler` thread that walks
``sys._current_frames()`` on a fixed interval, unwinds each sampled
thread's Python stack, and attributes the sample to the innermost open
span of the ambient :class:`~repro.telemetry.tracer.Tracer` (its
*category* is the phase; see ``docs/OBSERVABILITY.md`` §2).  The result
answers the question spans cannot: *which code* a phase spends its time
in, without touching a single instrumented line.

Design contract (mirrors the tracer's):

* **null default** — the process-global profiler is
  :data:`NULL_PROFILER` (``enabled = False``); hot paths guard on
  ``get_profiler().enabled`` and a profiling-off run pays one global
  read, no thread, no samples;
* **observation only** — the sampler never mutates the observed
  threads, consumes no RNG draws and takes no locks the numerics hold,
  so every filter result is bit-identical under profiling;
* **scoped sampling** — when a tracer is active, only threads that have
  opened spans on it (plus the main thread) are sampled, and a helper
  thread only while one of its spans is open (between spans a pool
  thread is parked on its queue, which is nobody's wall time); time the
  main thread spends *between* spans lands in the ``(untraced)`` phase,
  so the attributed fraction is an honest coverage statistic.

Exports: collapsed-stack text (``flamegraph.pl`` / speedscope paste
format, one ``frame;frame;... count`` line per unique stack) and
speedscope JSON (one sampled profile per track).  The executor's pool
threads open ``vectorized.bucket`` spans on the submitting
thread's tracer, so they are ordinary traced threads: the sweep samples
them onto their own ``senkf-analysis_<k>`` tracks.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.telemetry.tracer import get_tracer

__all__ = [
    "NULL_PROFILER",
    "NullProfiler",
    "SamplingProfiler",
    "get_profiler",
    "set_profiler",
    "use_profiler",
]

#: default wall-clock seconds between sampling sweeps (200 Hz).
DEFAULT_INTERVAL = 0.005
#: default bound on unwound stack depth per sample.
DEFAULT_MAX_DEPTH = 48
#: phase recorded for samples with no enclosing span.
UNTRACED_PHASE = "(untraced)"


def _frame_label(code) -> str:
    """``module:function`` label for one frame (collapsed-stack cell)."""
    name = os.path.basename(code.co_filename)
    if name.endswith(".py"):
        name = name[:-3]
    return f"{name}:{code.co_name}"


def _unwind(frame, max_depth: int) -> tuple[str, ...]:
    """Root-first label tuple of one thread's Python stack."""
    labels: list[str] = []
    depth = 0
    while frame is not None and depth < max_depth:
        labels.append(_frame_label(frame.f_code))
        frame = frame.f_back
        depth += 1
    labels.reverse()
    return tuple(labels)


class NullProfiler:
    """The disabled profiler: every operation is a no-op.

    ``enabled`` is False so guarded call sites (the campaign loop) skip
    profiling plumbing entirely.
    """

    __slots__ = ()
    enabled = False
    interval = 0.0

    def start(self) -> "NullProfiler":
        return self

    def stop(self) -> "NullProfiler":
        return self

    def report(self) -> dict:
        return {}


NULL_PROFILER = NullProfiler()


class SamplingProfiler:
    """Threaded ``sys._current_frames()`` sampler (see module docstring).

    Parameters
    ----------
    interval:
        Seconds between sampling sweeps.  The default 5 ms keeps
        measured overhead well under the 10% CI bound while resolving
        phases a few milliseconds long; see ``docs/OBSERVABILITY.md``
        §10 for tuning guidance.
    max_depth:
        Stack-unwind bound per sample (deeper frames are dropped from
        the *root* side, keeping the hot leaf).
    tracer:
        Tracer to attribute samples against; ``None`` resolves the
        ambient tracer at every sweep (so ``use_tracer`` scoping works).
    all_threads:
        Sample every live thread instead of only span-opening ones.
    """

    enabled = True

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        max_depth: int = DEFAULT_MAX_DEPTH,
        tracer=None,
        all_threads: bool = False,
    ):
        if interval <= 0.0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.interval = float(interval)
        self.max_depth = int(max_depth)
        self.all_threads = bool(all_threads)
        self._tracer = tracer
        self._lock = threading.Lock()
        #: (track, phase, stack) -> sample count
        self._counts: dict[tuple[str, str, tuple[str, ...]], int] = {}
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self.n_sweeps = 0
        self.n_samples = 0
        self.self_seconds = 0.0
        self._started_at: float | None = None
        self.duration = 0.0

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        """Begin sampling (idempotent: a running sampler is left alone)."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._loop, name="senkf-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        """Stop sampling and join the sampler thread (idempotent)."""
        thread, self._thread = self._thread, None
        if thread is None:
            return self
        self._stop.set()
        thread.join(timeout=max(1.0, 50 * self.interval))
        if self._started_at is not None:
            self.duration += time.perf_counter() - self._started_at
            self._started_at = None
        return self

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- the sampling sweep ----------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self._sample_once()
            except Exception:  # pragma: no cover - never kill the host
                pass

    def _sample_once(self) -> None:
        t0 = time.perf_counter()
        tracer = self._tracer if self._tracer is not None else get_tracer()
        attribute = bool(getattr(tracer, "enabled", False))
        traced: set[int] | None = None
        if attribute and not self.all_threads:
            traced = tracer.traced_thread_ids()
        own = threading.get_ident()
        main_id = threading.main_thread().ident
        names = {t.ident: t.name for t in threading.enumerate()}
        sampled: list[tuple[str, str, tuple[str, ...]]] = []
        for tid, frame in sys._current_frames().items():
            if tid == own:
                continue
            if traced is not None and tid != main_id and tid not in traced:
                continue
            phase = UNTRACED_PHASE
            if attribute:
                span = tracer.open_span(tid)
                if span is not None:
                    phase = span.category
                elif traced is not None and tid != main_id:
                    continue  # a helper thread between spans is parked
            track = (
                "main" if tid == main_id else names.get(tid, f"thread-{tid}")
            )
            sampled.append((track, phase, _unwind(frame, self.max_depth)))
        with self._lock:
            for key in sampled:
                self._counts[key] = self._counts.get(key, 0) + 1
            self.n_samples += len(sampled)
            self.n_sweeps += 1
            self.self_seconds += time.perf_counter() - t0

    # -- views -----------------------------------------------------------------
    def samples(self) -> dict[tuple[str, str, tuple[str, ...]], int]:
        with self._lock:
            return dict(self._counts)

    def phase_samples(self) -> dict[str, int]:
        """Sample count per attributed phase (tracer category)."""
        out: dict[str, int] = {}
        for (_, phase, _), count in self.samples().items():
            out[phase] = out.get(phase, 0) + count
        return dict(sorted(out.items()))

    def attributed_fraction(self) -> float:
        """Fraction of samples attributed to a known span phase."""
        phases = self.phase_samples()
        total = sum(phases.values())
        if not total:
            return 0.0
        return 1.0 - phases.get(UNTRACED_PHASE, 0) / total

    # -- exports ---------------------------------------------------------------
    def collapsed(self) -> str:
        """Collapsed-stack text: ``track;phase;frames... count`` lines.

        The track and phase prefix the frame stack, so a flamegraph
        renders one tower per track with phases as the first split —
        paste into speedscope or feed to ``flamegraph.pl``.
        """
        lines = []
        for (track, phase, stack), count in sorted(self.samples().items()):
            cells = ";".join((track, phase) + stack)
            lines.append(f"{cells} {count}")
        return "\n".join(lines)

    def speedscope(self, name: str = "senkf-profile") -> dict:
        """Speedscope JSON: one ``sampled`` profile per track."""
        frames: list[dict] = []
        frame_index: dict[str, int] = {}

        def index_of(label: str) -> int:
            i = frame_index.get(label)
            if i is None:
                i = frame_index[label] = len(frames)
                frames.append({"name": label})
            return i

        by_track: dict[str, list[tuple[list[int], int]]] = {}
        for (track, phase, stack), count in sorted(self.samples().items()):
            indices = [index_of(phase)] + [index_of(s) for s in stack]
            by_track.setdefault(track, []).append((indices, count))
        profiles = []
        for track, rows in sorted(by_track.items()):
            total = sum(count for _, count in rows)
            profiles.append(
                {
                    "type": "sampled",
                    "name": track,
                    "unit": "none",
                    "startValue": 0,
                    "endValue": total,
                    "samples": [indices for indices, _ in rows],
                    "weights": [count for _, count in rows],
                }
            )
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "name": name,
            "shared": {"frames": frames},
            "profiles": profiles,
        }

    def write_collapsed(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.collapsed() + "\n")
        return path

    def write_speedscope(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.speedscope(), indent=2))
        return path

    # -- rollup ----------------------------------------------------------------
    def report(self, top: int = 20) -> dict:
        """The ``sampler`` slice of a ``senkf-profile/2`` payload."""
        samples = self.samples()
        tracks: dict[str, int] = {}
        for (track, _, _), count in samples.items():
            tracks[track] = tracks.get(track, 0) + count
        ranked = sorted(samples.items(), key=lambda kv: -kv[1])[:top]
        return {
            "interval": self.interval,
            "duration": (
                self.duration
                + (
                    time.perf_counter() - self._started_at
                    if self._started_at is not None
                    else 0.0
                )
            ),
            "n_sweeps": self.n_sweeps,
            "n_samples": sum(samples.values()),
            "n_stacks": len(samples),
            "self_seconds": self.self_seconds,
            "attributed_fraction": self.attributed_fraction(),
            "phase_samples": self.phase_samples(),
            "tracks": dict(sorted(tracks.items())),
            "top_stacks": [
                {
                    "track": track,
                    "phase": phase,
                    "stack": list(stack),
                    "count": count,
                }
                for (track, phase, stack), count in ranked
            ],
        }


# -- process-global default ----------------------------------------------------
_global_profiler: NullProfiler | SamplingProfiler = NULL_PROFILER


def get_profiler() -> NullProfiler | SamplingProfiler:
    """The ambient profiler (:data:`NULL_PROFILER` out of the box)."""
    return _global_profiler


def set_profiler(
    profiler: SamplingProfiler | None,
) -> NullProfiler | SamplingProfiler:
    """Install ``profiler`` globally (None restores the null profiler);
    returns the previous one."""
    global _global_profiler
    previous = _global_profiler
    _global_profiler = profiler if profiler is not None else NULL_PROFILER
    return previous


@contextmanager
def use_profiler(
    profiler: SamplingProfiler | None,
) -> Iterator[NullProfiler | SamplingProfiler]:
    """Scope ``profiler`` as the process-global default."""
    previous = set_profiler(profiler)
    try:
        yield get_profiler()
    finally:
        set_profiler(previous if previous is not NULL_PROFILER else None)

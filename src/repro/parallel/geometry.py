"""Per-cycle geometry caching for the inline analysis engine.

Every local analysis starts with work that is a pure function of the
*decomposition geometry* and the *observation network* — none of it
depends on the ensemble values, so across the cycles of a campaign it is
recomputed for nothing:

* the observation restriction to the expansion box
  (:meth:`~repro.core.observations.ObservationNetwork.restrict_to_box`);
* the expansion/interior flat-index arrays and the interior's positions
  inside the expansion (the projection ``P_ij`` of Eq. 6);
* the expansion's (ix, iy) coordinate arrays;
* the modified-Cholesky conditional-dependence stencil
  (:func:`~repro.core.cholesky.neighbour_predecessors` — the sparsity
  pattern of ``B̂⁻¹``, which depends only on coordinates and the
  localization radius).

:class:`GeometryCache` memoises all of it per ``(network, grid, piece,
radius)`` key into a :class:`PieceGeometry`, which the executor ships to
workers and :func:`~repro.core.analysis.local_analysis` consumes in place
of re-deriving the same arrays.

Invalidation rules (see docs/PERFORMANCE.md): networks and grids are
keyed *by object identity* (they are frozen dataclasses — treat them as
immutable); pieces are keyed *structurally* (S-EnKF rebuilds equal layer
sub-domains every call and must still hit).  A new network/grid object
starts a fresh key family; ``clear()`` empties the cache; ``maxsize``
bounds the entry count with oldest-first eviction, and a network/grid
stays referenced only as long as an entry keyed on it does.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields

import numpy as np

from repro.core.cholesky import neighbour_predecessors
from repro.core.domain import SubDomain
from repro.telemetry.metrics import get_metrics
from repro.telemetry.tracer import get_tracer

__all__ = ["BucketGeometry", "GeometryCache", "PieceGeometry"]


def _value_nbytes(value) -> int:
    """Array bytes of one field value: ndarray, CSR matrix, or a
    list/tuple of either; everything else counts zero."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if hasattr(value, "data") and hasattr(value, "indices") and hasattr(
        value, "indptr"
    ):  # scipy CSR/CSC without importing scipy here
        return int(
            value.data.nbytes + value.indices.nbytes + value.indptr.nbytes
        )
    if isinstance(value, (list, tuple)):
        return sum(_value_nbytes(item) for item in value)
    return 0


def _geometry_nbytes(entry) -> int:
    """Summed array bytes across every dataclass field of one entry."""
    return sum(
        _value_nbytes(getattr(entry, f.name)) for f in fields(entry)
    )


@dataclass(frozen=True)
class PieceGeometry:
    """The ensemble-independent inputs of one piece's local analysis."""

    #: indices into the *global* observation vector that fall in the box
    obs_positions: np.ndarray
    #: local operator ``H_[i,j]`` (m̄ × n̄ CSR)
    h_local: object
    #: diagonal of the local ``R`` (m̄,)
    r_diag: np.ndarray
    #: flat global indices of the expansion (n̄,)
    expansion_flat: np.ndarray
    #: flat global indices of the interior
    interior_flat: np.ndarray
    #: interior positions inside the expansion ordering (``P_ij``)
    interior_positions: np.ndarray
    #: per-expansion-point grid coordinates
    exp_ix: np.ndarray
    exp_iy: np.ndarray
    #: modified-Cholesky predecessor stencil (None when not requested or
    #: when the piece sees no observations)
    predecessors: list[np.ndarray] | None = None
    #: structural digest of (expansion size, interior projection) — two
    #: pieces with equal digests can be stacked into one batched update
    interior_sig: str = ""
    #: structural digest of the predecessor stencil ("" when absent);
    #: batching the modified Cholesky additionally requires equal stencils
    stencil_sig: str = ""


@dataclass(frozen=True)
class BucketGeometry:
    """Stacked, padded geometry for one batch of structurally equal pieces.

    Built (and cached) by :meth:`GeometryCache.get_bucket` from pieces
    whose :attr:`PieceGeometry.interior_sig` (and, for the EnKF kind,
    :attr:`PieceGeometry.stencil_sig`) agree — so every per-piece array
    stacks into a dense ``(B, ...)`` operand.  Observation counts may
    differ inside a bucket; shorter pieces are padded to ``m_max`` with
    *exact no-op* slots (zero ``H`` rows, unit ``R``, masked-to-zero
    observations) and the waste is recorded for the
    ``vectorized.pad_waste`` metric.
    """

    #: piece indices (into the originating plan) in stack order
    plan_indices: tuple[int, ...]
    #: (B, n̄) gather: global flat state rows of each piece's expansion
    exp_index: np.ndarray
    #: concatenated interior flat rows (B·n_int,) — the scatter target
    interior_flat_cat: np.ndarray
    #: shared interior positions inside the expansion (n_int,)
    interior_positions: np.ndarray
    #: dense stacked local operators (B, m_max, n̄)
    h_dense: np.ndarray
    #: stacked R diagonals, padded with 1.0 (B, m_max)
    r_diag: np.ndarray
    #: gather into the global observation vector, padded with 0 (B, m_max)
    obs_index: np.ndarray
    #: 1.0 on real observation slots, 0.0 on pad slots (B, m_max)
    obs_mask: np.ndarray
    #: real observation count per piece (B,)
    obs_counts: np.ndarray
    #: shared modified-Cholesky stencil (None for the ETKF kind)
    predecessors: list[np.ndarray] | None
    #: padded-out slots (sum over pieces of m_max − m̄_b)
    pad_slots: int

    @property
    def n_batch(self) -> int:
        return len(self.plan_indices)

    @property
    def total_slots(self) -> int:
        """Observation slots in the stacked operands (B · m_max)."""
        return int(self.r_diag.size)

    @property
    def pad_waste(self) -> float:
        """Padded fraction of the stacked observation slots."""
        return self.pad_slots / self.total_slots if self.total_slots else 0.0


def _digest(*chunks: bytes) -> str:
    h = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


class GeometryCache:
    """Memoise :class:`PieceGeometry` across cycles (thread-safe).

    Parameters
    ----------
    maxsize:
        Optional bound on cached entries; the oldest entries are evicted
        first.  ``None`` (default) never evicts — a decomposition has a
        fixed, small piece count, so unbounded growth only happens when
        many distinct networks/decompositions stream through one cache.
    """

    def __init__(self, maxsize: int | None = None):
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be >= 1 or None, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        #: key -> (geometry, (network, grid)).  Keys carry the network's
        #: and grid's ``id()``; each entry pins its own two objects, so an
        #: id cannot be recycled while an entry is keyed on it and the
        #: pin goes when the last such entry is evicted.
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        #: the last :meth:`observed` answer as (key, answer, (network,
        #: grid)) — one slot outside the LRU, pinned the same way
        self._observed: tuple | None = None

    # -- keys ------------------------------------------------------------------
    @staticmethod
    def _piece_key(piece: SubDomain) -> tuple:
        return (
            piece.ix0, piece.ix1, piece.iy0, piece.iy1, piece.xi, piece.eta,
        )

    # -- lookup ----------------------------------------------------------------
    def get(
        self,
        network,
        piece: SubDomain,
        radius_km: float | None = None,
    ) -> tuple[PieceGeometry, bool]:
        """``(geometry, was_cached)`` for one piece.

        ``radius_km`` requests the modified-Cholesky predecessor stencil
        as part of the geometry (EnKF path); ``None`` skips it (ETKF
        path, which has no precision estimate).
        """
        key = (
            id(network),
            id(piece.grid),
            self._piece_key(piece),
            float(radius_km) if radius_km is not None else None,
        )
        cached = self._lookup(key)
        if cached is not None:
            return cached, True
        geometry = self._build(network, piece, radius_km)
        self._store(key, geometry, (network, piece.grid))
        return geometry, False

    def _lookup(self, key: tuple):
        """The entry under ``key`` (counted as a hit), or ``None``."""
        with self._lock:
            cached = self._entries.get(key)
            if cached is None:
                return None
            self.hits += 1
            self._entries.move_to_end(key)
        if get_tracer().enabled:
            get_metrics().counter("geometry.cache_hits").inc()
        return cached[0]

    def _store(self, key: tuple, entry, pins: tuple) -> None:
        """Insert a freshly built entry (a miss), evicting oldest-first."""
        with self._lock:
            self.misses += 1
            self._entries[key] = (entry, pins)
            if self.maxsize is not None:
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
        if get_tracer().enabled:
            get_metrics().counter("geometry.cache_misses").inc()

    def local_geometry(
        self, network, piece: SubDomain, radius_km: float | None = None
    ) -> PieceGeometry:
        """Like :meth:`get` without the cache-status flag."""
        return self.get(network, piece, radius_km)[0]

    def observed(self, network, pieces) -> tuple[int, ...]:
        """Indices into ``pieces`` of those that see at least one observation.

        The cheap answer for a whole work-list: the network's own
        ``any_in_box`` membership test on each expansion box, with no
        operator, index array or stencil built, so an observation-free
        piece never costs a :class:`PieceGeometry`.  The last answer is
        remembered (a campaign asks the same question every cycle) in
        one slot of its own: it takes no ``maxsize`` entry and is not a
        geometry derivation, so ``hits``/``misses`` leave it out.
        """
        if not pieces:
            return ()
        grid = pieces[0].grid
        key = (
            id(network),
            id(grid),
            tuple(self._piece_key(piece) for piece in pieces),
        )
        remembered = self._observed
        if remembered is not None and remembered[0] == key:
            return remembered[1]
        answer = tuple(
            i for i, piece in enumerate(pieces)
            if network.any_in_box(piece.exp_x_indices, piece.exp_y_indices)
        )
        self._observed = (key, answer, (network, grid))
        return answer

    @staticmethod
    def _build(network, piece: SubDomain, radius_km: float | None) -> PieceGeometry:
        obs_positions, h_local = network.restrict_to_box(
            piece.exp_x_indices, piece.exp_y_indices
        )
        exp_ix, exp_iy = piece.expansion_coords
        predecessors = None
        stencil_sig = ""
        if radius_km is not None and obs_positions.size:
            predecessors = neighbour_predecessors(
                piece.grid, exp_ix, exp_iy, radius_km
            )
            stencil_sig = _digest(
                *(np.ascontiguousarray(p, dtype=np.int64).tobytes()
                  for p in predecessors),
                np.asarray([p.size for p in predecessors],
                           dtype=np.int64).tobytes(),
            )
        interior = piece.interior_positions_in_expansion
        interior_sig = _digest(
            np.asarray([piece.exp_size], dtype=np.int64).tobytes(),
            np.ascontiguousarray(interior, dtype=np.int64).tobytes(),
        )
        return PieceGeometry(
            obs_positions=obs_positions,
            h_local=h_local,
            r_diag=np.full(obs_positions.size, network.obs_error_std**2),
            expansion_flat=piece.expansion_flat,
            interior_flat=piece.interior_flat,
            interior_positions=interior,
            exp_ix=exp_ix,
            exp_iy=exp_iy,
            predecessors=predecessors,
            interior_sig=interior_sig,
            stencil_sig=stencil_sig,
        )

    # -- stacked buckets -------------------------------------------------------
    def get_bucket(
        self,
        network,
        items: list[tuple[int, SubDomain, PieceGeometry]],
        radius_km: float | None = None,
    ) -> tuple[BucketGeometry, bool]:
        """``(bucket, was_cached)`` for one batch of prepared pieces.

        ``items`` are ``(plan_index, piece, geometry)`` triples whose
        structural signatures agree (the caller — the vectorized
        strategy's bucketer — guarantees this; it is re-checked here).
        The stacked arrays depend only on the geometry, so the entry is
        cached under the same network/grid identity rules as per-piece
        entries, keyed by the structural piece keys in stack order.
        """
        if not items:
            raise ValueError("cannot build a bucket from zero pieces")
        first_geo = items[0][2]
        for _, _, geo in items[1:]:
            if (
                geo.interior_sig != first_geo.interior_sig
                or geo.stencil_sig != first_geo.stencil_sig
            ):
                raise ValueError(
                    "bucketed pieces must share structural signatures"
                )
        grid = items[0][1].grid
        key = (
            "bucket",
            id(network),
            id(grid),
            tuple(self._piece_key(piece) for _, piece, _ in items),
            float(radius_km) if radius_km is not None else None,
        )
        cached = self._lookup(key)
        if cached is not None:
            # plan indices are call-specific; rebind them on the hit
            if cached.plan_indices != tuple(i for i, _, _ in items):
                from dataclasses import replace

                cached = replace(
                    cached, plan_indices=tuple(i for i, _, _ in items)
                )
            return cached, True
        bucket = self._build_bucket(items)
        self._store(key, bucket, (network, grid))
        return bucket, False

    @staticmethod
    def _build_bucket(
        items: list[tuple[int, SubDomain, PieceGeometry]],
    ) -> BucketGeometry:
        geos = [geo for _, _, geo in items]
        n_exp = geos[0].expansion_flat.size
        m_max = max(int(g.obs_positions.size) for g in geos)
        n_batch = len(geos)
        exp_index = np.stack([g.expansion_flat for g in geos])
        interior_flat_cat = np.concatenate([g.interior_flat for g in geos])
        h_dense = np.zeros((n_batch, m_max, n_exp))
        r_diag = np.ones((n_batch, m_max))
        obs_index = np.zeros((n_batch, m_max), dtype=np.int64)
        obs_mask = np.zeros((n_batch, m_max))
        obs_counts = np.empty(n_batch, dtype=np.int64)
        for b, g in enumerate(geos):
            m = int(g.obs_positions.size)
            obs_counts[b] = m
            if m:
                h_dense[b, :m, :] = g.h_local.toarray()
                r_diag[b, :m] = g.r_diag
                obs_index[b, :m] = g.obs_positions
                obs_mask[b, :m] = 1.0
        return BucketGeometry(
            plan_indices=tuple(i for i, _, _ in items),
            exp_index=exp_index,
            interior_flat_cat=interior_flat_cat,
            interior_positions=geos[0].interior_positions,
            h_dense=h_dense,
            r_diag=r_diag,
            obs_index=obs_index,
            obs_mask=obs_mask,
            obs_counts=obs_counts,
            predecessors=geos[0].predecessors,
            pad_slots=int(sum(m_max - int(g.obs_positions.size) for g in geos)),
        )

    # -- maintenance -----------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def nbytes(self) -> int:
        """Total bytes of array payload held by the cached entries.

        The cache bounds entry *count* (``maxsize``); this is the
        byte-side view the resource observatory exports as the
        ``geometry_cache_bytes`` gauge and the footprint model counts as
        a measured component.  Sums every ndarray field of every entry —
        including CSR matrices (data/indices/indptr) and per-point
        predecessor lists — and ignores scalars/signatures, whose bytes
        are noise next to the arrays.
        """
        with self._lock:
            entries = [entry for entry, _ in self._entries.values()]
        return sum(_geometry_nbytes(entry) for entry in entries)

    @property
    def stats(self) -> dict:
        with self._lock:
            stats = {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
            }
        stats["bytes"] = self.nbytes()
        return stats

    def clear(self) -> None:
        """Drop every entry (and with them the pinned networks/grids)."""
        with self._lock:
            self._entries.clear()
            self._observed = None
            self.hits = 0
            self.misses = 0

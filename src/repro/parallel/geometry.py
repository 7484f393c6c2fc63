"""Per-cycle geometry caching for the inline analysis engine.

Every local analysis starts with work that does not depend on the
ensemble values, so across the cycles of a campaign it is recomputed for
nothing.  It falls in two halves, cached separately:

* **structure** — a function of the *shape* of the piece's expansion
  alone: the interior's positions inside the expansion (the projection
  ``P_ij`` of Eq. 6), the modified-Cholesky conditional-dependence
  stencil (:func:`~repro.core.cholesky.neighbour_predecessors` — the
  sparsity pattern of ``B̂⁻¹``) and what the kernels derive from it
  (:class:`~repro.core.cholesky.Stencil`: row groups, band offsets), and
  the digests the batched engine buckets by.  Every piece of a
  decomposition with the same shape shares one
  :class:`PieceStructure`, whatever its position and whatever the
  network (a 256-piece decomposition has three);
* **network** — the observation restriction to the expansion box
  (:meth:`~repro.core.observations.ObservationNetwork.restrict_to_box`)
  and the ``R`` diagonal, plus the piece's own flat-index arrays.

:class:`GeometryCache` composes the two into a :class:`PieceGeometry`,
which the batched engine (:mod:`repro.parallel.vectorized`) stacks and
the per-piece reference :func:`~repro.core.analysis.local_analysis`
consumes in place of re-deriving the same arrays.

Invalidation rules (see docs/PERFORMANCE.md §4): structures are keyed by
what they are a function of — grid spacing and periodicity, the
expansion's relative coordinates and interior map (compared as bytes,
not assumed from translation symmetry) and the radius — never by
network or position, and are dropped only by ``clear()``.  Network
halves are keyed by the network's and grid's *object identity* (they are
frozen dataclasses — treat them as immutable) and the piece's defining
fields (S-EnKF rebuilds equal layer sub-domains every call and must
still hit); the entries of the two most recently used networks are kept
and the rest dropped, so a network that moves every cycle rebuilds only
its own half and the cache stays flat.  ``maxsize`` additionally bounds
the network-keyed entry count with oldest-first eviction.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, fields, replace

import numpy as np
import scipy.sparse as sp

from repro.core.analysis import ObservationTerms
from repro.core.cholesky import KernelTables, Stencil, neighbour_predecessors
from repro.core.domain import SubDomain
from repro.telemetry.metrics import get_metrics
from repro.telemetry.tracer import get_tracer

__all__ = ["BucketGeometry", "GeometryCache", "PieceGeometry", "PieceStructure"]

#: networks whose entries are kept; an older network's go when a newer
#: one is used (a moving network must not grow the cache for ever)
_NETWORKS_KEPT = 2


def _value_nbytes(value) -> int:
    """Array bytes of one field value: ndarray, CSR matrix, a list/tuple
    or dict of them, :class:`ObservationTerms` or :class:`KernelTables`;
    everything else counts zero."""
    if isinstance(value, (ObservationTerms, KernelTables)):
        return _geometry_nbytes(value)
    if isinstance(value, dict):
        return sum(_value_nbytes(item) for item in value.values())
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if hasattr(value, "data") and hasattr(value, "indices") and hasattr(
        value, "indptr"
    ):  # scipy CSR/CSC
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
class PieceStructure:
    """The shape-only half of a piece's geometry, shared by every piece
    (at any position, under any network) whose expansion has this shape."""

    #: interior positions inside the expansion ordering (``P_ij``)
    interior_positions: np.ndarray
    #: modified-Cholesky stencil and its derived artefacts
    stencil: Stencil
    #: structural digest of (expansion size, interior projection) — two
    #: pieces with equal digests can be stacked into one batched update
    interior_sig: str
    #: structural digest of the predecessor stencil; batching the
    #: modified Cholesky additionally requires equal stencils
    stencil_sig: str


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
    #: the shape-only half (shared, not owned)
    structure: PieceStructure

    @property
    def interior_positions(self) -> np.ndarray:
        return self.structure.interior_positions

    @property
    def stencil(self) -> Stencil:
        return self.structure.stencil

    @property
    def interior_sig(self) -> str:
        return self.structure.interior_sig

    @property
    def stencil_sig(self) -> str:
        return self.structure.stencil_sig


@dataclass(frozen=True)
class BucketGeometry:
    """Stacked, padded geometry for one batch of structurally equal pieces.

    Built (and cached) by :meth:`GeometryCache.get_bucket` from pieces
    whose :attr:`PieceGeometry.interior_sig` and
    :attr:`PieceGeometry.stencil_sig` agree — so every per-piece array
    stacks into a ``(B, ...)`` operand.  Observation counts may differ
    inside a bucket; shorter pieces are padded to ``m_max`` with *exact
    no-op* slots (zero ``H`` rows, unit ``R``, masked-to-zero
    observations) and the waste is recorded for the
    ``vectorized.pad_waste`` metric.

    The local operators are held as the one block-diagonal CSR over the
    stacked state; each run's slice of it, with ``R``, is turned into
    :class:`~repro.core.analysis.ObservationTerms` once and kept here.
    """

    #: piece indices (into the originating plan) in stack order
    plan_indices: tuple[int, ...]
    #: (B, n̄) gather: global flat state rows of each piece's expansion
    exp_index: np.ndarray
    #: concatenated interior flat rows (B·n_int,) — the scatter target
    interior_flat_cat: np.ndarray
    #: shared interior positions inside the expansion (n_int,)
    interior_positions: np.ndarray
    #: block-diagonal local operators (B·m_max, B·n̄) CSR, pad rows empty
    h_block: object
    #: stacked R diagonals, padded with 1.0 (B, m_max)
    r_diag: np.ndarray
    #: gather into the global observation vector, padded with 0 (B, m_max)
    obs_index: np.ndarray
    #: 1.0 on real observation slots, 0.0 on pad slots (B, m_max)
    obs_mask: np.ndarray
    #: real observation count per piece (B,)
    obs_counts: np.ndarray
    #: shared modified-Cholesky stencil
    stencil: Stencil
    #: padded-out slots (sum over pieces of m_max − m̄_b)
    pad_slots: int
    #: ``(lo, hi)`` -> the :class:`~repro.core.analysis.ObservationTerms`
    #: of pieces ``[lo, hi)`` (see :meth:`observation_terms`)
    run_terms: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_batch(self) -> int:
        return len(self.plan_indices)

    def observation_terms(self, lo: int, hi: int) -> ObservationTerms:
        """The observation terms of pieces ``[lo, hi)``, built from their
        block of ``h_block`` and ``r_diag`` on first use and kept: a run
        of a cached bucket builds no sparse matrix.  Each run owns its own
        ``(lo, hi)`` entry, so the runs of one bucket may ask at once, each
        on its own pool thread."""
        terms = self.run_terms.get((lo, hi))
        if terms is None:
            n_exp, m_max = self.exp_index.shape[1], self.r_diag.shape[1]
            terms = ObservationTerms.build(
                self.h_block[lo * m_max:hi * m_max, lo * n_exp:hi * n_exp],
                self.r_diag[lo:hi].ravel(),
            )
            self.run_terms[(lo, hi)] = terms
        return terms

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
        Optional bound on the network-keyed entries (pieces and
        buckets); the oldest are evicted first.  ``None`` (default)
        leaves the bound to the network rule alone: only the two most
        recently used networks keep entries, and a decomposition has a
        fixed, small piece count.  Structures are not counted — there is
        one per distinct expansion shape.
    """

    def __init__(self, maxsize: int | None = None):
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be >= 1 or None, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.structure_hits = 0
        self.structure_misses = 0
        self._lock = threading.Lock()
        #: key -> (geometry, (network, grid)).  Keys lead with the
        #: network's ``id()`` and carry the grid's; each entry pins its
        #: own two objects, so an id cannot be recycled while an entry is
        #: keyed on it and the pin goes when the last such entry does.
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        #: ``id()`` of the networks that may hold entries, oldest first
        self._recent_networks: list[int] = []
        #: shape key -> :class:`PieceStructure`; untouched by networks
        self._structures: dict[tuple, PieceStructure] = {}
        #: stencil digest -> the one :class:`Stencil` (and kernel tables)
        #: every structure with that stencil shares
        self._stencils: dict[str, Stencil] = {}
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
        radius_km: float,
    ) -> tuple[PieceGeometry, bool]:
        """``(geometry, was_cached)`` for one piece.

        ``radius_km`` is the localization radius of the modified-Cholesky
        stencil the geometry carries; it is part of the key.  A miss
        rebuilds the network half only; the structure is looked up by
        shape.
        """
        radius = float(radius_km)
        key = (id(network), id(piece.grid), self._piece_key(piece), radius)
        cached = self._lookup(key)
        if cached is not None:
            return cached, True
        obs_positions, h_local = network.restrict_to_box(
            piece.exp_x_indices, piece.exp_y_indices
        )
        geometry = PieceGeometry(
            obs_positions=obs_positions,
            h_local=h_local,
            r_diag=np.full(obs_positions.size, network.obs_error_std**2),
            expansion_flat=piece.expansion_flat,
            interior_flat=piece.interior_flat,
            structure=self._structure(piece, radius),
        )
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
            self._use_network(key[0])
        if get_tracer().enabled:
            get_metrics().counter("geometry.cache_hits").inc()
        return cached[0]

    def _store(self, key: tuple, entry, pins: tuple) -> None:
        """Insert a freshly built entry (a miss), evicting oldest-first."""
        with self._lock:
            self.misses += 1
            self._entries[key] = (entry, pins)
            self._use_network(key[0])
            if self.maxsize is not None:
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
        if get_tracer().enabled:
            get_metrics().counter("geometry.cache_misses").inc()

    def _use_network(self, network_id: int) -> None:
        """Mark a network most recently used and drop every entry of the
        networks that fall out of the kept set (caller holds the lock)."""
        recent = self._recent_networks
        if recent and recent[-1] == network_id:
            return
        if network_id in recent:
            recent.remove(network_id)
        recent.append(network_id)
        for stale in recent[:-_NETWORKS_KEPT]:
            for key in [k for k in self._entries if k[0] == stale]:
                del self._entries[key]
        del recent[:-_NETWORKS_KEPT]

    def _structure(self, piece: SubDomain, radius: float) -> PieceStructure:
        """The shape-only half of ``piece``'s geometry, built once per shape.

        The expansion is taken to its canonical position — first column
        and first row at zero, longitudes unwrapped modulo ``n_x`` — so
        that equivalent pieces (interior, seam-wrapping, at either pole)
        compare equal, byte for byte, and the stencil builder is handed
        literally identical input for all of them.
        """
        grid = piece.grid
        exp_ix, exp_iy = piece.expansion_coords
        rel_ix = (exp_ix - exp_ix[0]) % grid.n_x
        rel_iy = exp_iy - exp_iy[0]
        interior = piece.interior_positions_in_expansion
        key = (
            grid.dx_km, grid.dy_km, grid.n_x, grid.periodic_x, radius,
            rel_ix.tobytes(), rel_iy.tobytes(), interior.tobytes(),
        )
        with self._lock:
            structure = self._structures.get(key)
            if structure is not None:
                self.structure_hits += 1
                return structure
        predecessors = neighbour_predecessors(grid, rel_ix, rel_iy, radius)
        stencil_sig = _digest(
            np.concatenate(predecessors).astype(np.int64).tobytes(),
            np.asarray([p.size for p in predecessors],
                       dtype=np.int64).tobytes(),
        )
        with self._lock:
            stencil = self._stencils.get(stencil_sig)
        if stencil is None:
            stencil = Stencil.from_predecessors(predecessors, piece.exp_size)
        structure = PieceStructure(
            interior_positions=interior,
            stencil=stencil,
            interior_sig=_digest(
                np.asarray([piece.exp_size], dtype=np.int64).tobytes(),
                np.ascontiguousarray(interior, dtype=np.int64).tobytes(),
            ),
            stencil_sig=stencil_sig,
        )
        with self._lock:
            self.structure_misses += 1
            self._structures[key] = structure
            self._stencils.setdefault(stencil_sig, stencil)
        return structure

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
        with self._lock:
            remembered = self._observed
        if remembered is not None and remembered[0] == key:
            return remembered[1]
        answer = tuple(
            i for i, piece in enumerate(pieces)
            if network.any_in_box(piece.exp_x_indices, piece.exp_y_indices)
        )
        with self._lock:
            self._observed = (key, answer, (network, grid))
        return answer

    # -- stacked buckets -------------------------------------------------------
    def get_bucket(
        self,
        network,
        items: list[tuple[int, SubDomain, PieceGeometry]],
        radius_km: float,
    ) -> tuple[BucketGeometry, bool]:
        """``(bucket, was_cached)`` for one batch of prepared pieces.

        ``items`` are ``(plan_index, piece, geometry)`` triples whose
        structural signatures agree (the caller — the vectorized
        engine's bucketer — guarantees this; it is re-checked here).
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
            id(network),
            id(grid),
            "bucket",
            tuple(self._piece_key(piece) for _, piece, _ in items),
            float(radius_km),
        )
        plan_indices = tuple(i for i, _, _ in items)
        cached = self._lookup(key)
        if cached is not None:
            # plan indices are call-specific; rebind them on the hit
            if cached.plan_indices != plan_indices:
                cached = replace(cached, plan_indices=plan_indices)
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
        r_diag = np.ones((n_batch, m_max))
        obs_index = np.zeros((n_batch, m_max), dtype=np.int64)
        obs_mask = np.zeros((n_batch, m_max))
        obs_counts = np.empty(n_batch, dtype=np.int64)
        padded = []  # each piece's H with its pad rows, (m_max, n̄) CSR
        for b, g in enumerate(geos):
            m = int(g.obs_positions.size)
            obs_counts[b] = m
            r_diag[b, :m] = g.r_diag
            obs_index[b, :m] = g.obs_positions
            obs_mask[b, :m] = 1.0
            h = sp.csr_matrix(g.h_local, copy=True)  # resize is in place
            h.resize((m_max, n_exp))
            padded.append(h)
        return BucketGeometry(
            plan_indices=tuple(i for i, _, _ in items),
            exp_index=np.stack([g.expansion_flat for g in geos]),
            interior_flat_cat=np.concatenate([g.interior_flat for g in geos]),
            interior_positions=geos[0].interior_positions,
            h_block=sp.block_diag(padded, format="csr"),
            r_diag=r_diag,
            obs_index=obs_index,
            obs_mask=obs_mask,
            obs_counts=obs_counts,
            stencil=geos[0].stencil,
            pad_slots=int(n_batch * m_max - obs_counts.sum()),
        )

    # -- maintenance -----------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def nbytes(self) -> int:
        """Total bytes of array payload the cache holds.

        The cache bounds entry *count*; this is the byte-side view the
        resource observatory exports as the ``geometry_cache_bytes``
        gauge and the footprint model counts as a measured component.
        Sums every ndarray field of every network-keyed entry — CSR
        matrices (data/indices/indptr) and each bucket's per-run
        observation terms included — of every structure, and of every
        distinct stencil with its kernel tables (once a kernel has built
        them) once, however many entries share it; scalars and
        signatures are noise next to the arrays and are ignored.
        """
        with self._lock:
            entries = [entry for entry, _ in self._entries.values()]
            structures = list(self._structures.values())
            stencils = list(self._stencils.values())
        built = [s.built_tables for s in stencils if s.built_tables]
        owned = entries + structures + stencils + built
        return sum(_geometry_nbytes(entry) for entry in owned)

    @property
    def stats(self) -> dict:
        with self._lock:
            stats = {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
                "structure_hits": self.structure_hits,
                "structure_misses": self.structure_misses,
            }
        stats["bytes"] = self.nbytes()
        return stats

    def clear(self) -> None:
        """Drop every entry and structure (and with the entries the
        pinned networks/grids)."""
        with self._lock:
            self._entries.clear()
            self._recent_networks.clear()
            self._structures.clear()
            self._stencils.clear()
            self._observed = None
            self.hits = 0
            self.misses = 0
            self.structure_hits = 0
            self.structure_misses = 0

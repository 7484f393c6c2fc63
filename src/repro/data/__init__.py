"""On-disk ensemble storage: the actual files the paper's filters read.

The background ensemble is one raw binary file per member — the flat state
in latitude-row-major order, ``float64`` — exactly the layout
:mod:`repro.io.layout` models for the simulator.  :class:`EnsembleStore`
writes/reads such files, and :func:`stage_plan_from_disk` executes any
:class:`~repro.io.plan.ReadPlan` against them with one real positional
read per extent, straight into the ``(n, N)`` background the filters
take: the one body that reads a plan into the program.  Given a
:class:`~repro.faults.policy.RetryPolicy` it retries transient faults and
returns the members it had to drop, for
:meth:`~repro.filters.distributed.DistributedEnKF.assimilate_degraded`.
:func:`write_plan_to_disk` writes the analysis back along a write plan,
one positional write per extent.  :func:`read_plan_from_disk` returns the
same reads as ``rank -> file -> values`` dicts for the end-to-end
benchmark harness.
"""

from repro.data.store import (
    EnsembleStore,
    read_plan_from_disk,
    stage_plan_from_disk,
    write_plan_to_disk,
)

__all__ = [
    "EnsembleStore",
    "read_plan_from_disk",
    "stage_plan_from_disk",
    "write_plan_to_disk",
]

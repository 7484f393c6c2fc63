"""On-disk ensemble storage: the actual files the paper's filters read.

The background ensemble is one raw binary file per member — the flat state
in latitude-row-major order, ``float64`` — exactly the layout
:mod:`repro.io.layout` models for the simulator.  :class:`EnsembleStore`
writes/reads such files, and :func:`read_plan_from_disk` executes any
:class:`~repro.io.plan.ReadPlan` against them with one real positional
read per extent, so the strategies are exercised end-to-end against a real
file system as well as against the simulated one.
:func:`stage_plan_from_disk` runs the same reads straight into the
``(n, N)`` background the filters take, and :func:`write_plan_to_disk`
writes the analysis back along a write plan, one positional write per
extent.
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

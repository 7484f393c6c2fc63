"""The four reading strategies side by side: seeks, bytes, simulated time.

Demonstrates the I/O story of the paper on the simulated parallel file
system: single-reader (L-EnKF) reads cheaply but distributes serially;
block reading (P-EnKF) parallelises but pays O(n_y * n_sdx) seeks into
one disk at a time; bar reading makes every access a single seek; and
concurrent groups multiply bandwidth until the disks saturate.

Also verifies — with real files — that every strategy's plan, staged
from a temporary ensemble store, delivers exactly the members that were
written (the strategies move the same numbers, at very different costs).

Run:  python examples/reading_strategies.py
"""

import tempfile
from functools import partial

import numpy as np

from repro.cluster import Machine, MachineSpec
from repro.core import Decomposition, Grid
from repro.data import EnsembleStore, stage_plan_from_disk
from repro.io import (
    FileLayout,
    bar_read_plan,
    block_read_plan,
    concurrent_access_plan,
    simulate_read_plan,
    single_reader_plan,
)


def main() -> None:
    grid = Grid(n_x=360, n_y=180)
    decomp = Decomposition(grid, n_sdx=24, n_sdy=10, xi=4, eta=2)
    layout = FileLayout(grid=grid, h_bytes=240)
    n_files = 24
    spec = MachineSpec.small_cluster()

    plans = {
        "single-reader (L-EnKF)": single_reader_plan(decomp, layout, n_files),
        "block (P-EnKF)": block_read_plan(decomp, layout, n_files),
        "bar (1 group)": bar_read_plan(decomp, layout, n_files),
        "concurrent (6 groups)": concurrent_access_plan(
            decomp, layout, n_files, n_cg=6
        ),
    }

    print(f"{n_files} member files of {layout.file_bytes / 1e6:.1f} MB on "
          f"{spec.n_storage_nodes} storage nodes, "
          f"{decomp.n_sdx}x{decomp.n_sdy} sub-domains\n")
    print(f"{'strategy':24s} {'readers':>8s} {'seeks':>9s} "
          f"{'GB read':>8s} {'sim. read time':>15s}")
    for name, plan in plans.items():
        machine = Machine(spec)
        _, makespan = simulate_read_plan(machine, plan)
        print(
            f"{name:24s} {len(plan.reader_ranks):8d} {plan.total_seeks:9d} "
            f"{plan.total_bytes_read() / 1e9:8.2f} {makespan:13.3f} s"
        )

    # Data equivalence on a miniature problem with real files.
    small_grid = Grid(n_x=24, n_y=12)
    small_decomp = Decomposition(small_grid, n_sdx=4, n_sdy=3, xi=2, eta=1)
    members = np.random.default_rng(0).normal(size=(small_grid.n, 4))
    with tempfile.TemporaryDirectory() as tmp:
        store = EnsembleStore(tmp, small_grid)
        store.write_ensemble(members)
        for name, planner in {
            "single-reader": single_reader_plan,
            "block": block_read_plan,
            "bar": bar_read_plan,
            "concurrent (2 groups)": partial(concurrent_access_plan, n_cg=2),
        }.items():
            plan = planner(small_decomp, store.layout, 4)
            staged, dropped = stage_plan_from_disk(plan, store)
            assert dropped == [] and np.array_equal(staged, members), name
    print("\nevery strategy's plan, staged from real files, delivered exactly "
          "the written members (data equivalence verified on a miniature "
          "problem)")

if __name__ == "__main__":
    main()

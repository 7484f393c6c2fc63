"""Simulated MPI: ranks and matched point-to-point messaging.

Each MPI rank is a DES process; messages cost ``a + b * bytes`` of sender
time (Table 1's startup/transfer constants) and are matched at the receiver
by ``(source, tag)`` with wildcards, like real MPI.

Only point-to-point messages exist, because they are all the simulated
filters send: S-EnKF's I/O ranks send one aggregated block message per
compute rank per stage, L-EnKF's single reader sends member blocks one
after another, and P-EnKF sends nothing.  No simulated filter sends a
collective, so the ``log(n_cg + 1)`` factor of Eq. 8 is an assumption of
the cost model (:mod:`repro.costmodel`), not something a simulated tree
reproduces.

The layer is SPMD-flavoured: you write one generator per rank (or one
parameterised by rank) and ``spawn`` it::

    comm = Communicator(machine, size=4)

    def main(ctx):
        if ctx.rank == 0:
            yield from ctx.send(dest=1, nbytes=1 << 20, payload="hello")
        elif ctx.rank == 1:
            msg = yield from ctx.recv(source=0)

    comm.spawn(main)
    machine.run()
"""

from repro.mpisim.comm import (
    ANY_SOURCE,
    ANY_TAG,
    Communicator,
    Message,
    RankContext,
)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "Message",
    "RankContext",
]

"""Tests for the simulated MPI layer."""

import pytest

from repro.cluster import Machine, MachineSpec
from repro.mpisim import ANY_SOURCE, ANY_TAG, Communicator
from repro.sim.errors import SimulationError


def make_comm(size, alpha=1e-3, beta=1e-6):
    machine = Machine(MachineSpec(alpha=alpha, beta=beta))
    return machine, Communicator(machine, size=size)


class TestPointToPoint:
    def test_send_recv_payload(self):
        machine, comm = make_comm(2)
        got = []

        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, nbytes=1000, payload={"x": 1}, tag=7)
            else:
                msg = yield from ctx.recv(source=0, tag=7)
                got.append((msg.payload, msg.nbytes, ctx.env.now))

        comm.spawn(main)
        machine.run()
        # a + b*n = 1e-3 + 1e-3 = 2e-3
        assert got == [({"x": 1}, 1000.0, pytest.approx(2e-3))]

    def test_send_cost_occupies_sender(self):
        machine, comm = make_comm(2)
        sender_done = []

        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, nbytes=2000)
                sender_done.append(ctx.env.now)
            else:
                yield from ctx.recv(source=0)

        comm.spawn(main)
        machine.run()
        assert sender_done == [pytest.approx(1e-3 + 2e-3)]

    def test_recv_any_source(self):
        machine, comm = make_comm(3)
        got = []

        def main(ctx):
            if ctx.rank == 0:
                msg = yield from ctx.recv(source=ANY_SOURCE)
                got.append(msg.source)
            elif ctx.rank == 2:
                yield from ctx.send(0, nbytes=10)

        comm.spawn(main)
        machine.run()
        assert got == [2]

    def test_tag_matching_skips_mismatched(self):
        machine, comm = make_comm(2)
        got = []

        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, nbytes=10, tag=1, payload="first")
                yield from ctx.send(1, nbytes=10, tag=2, payload="second")
            else:
                msg = yield from ctx.recv(source=0, tag=2)
                got.append(msg.payload)
                msg = yield from ctx.recv(source=0, tag=1)
                got.append(msg.payload)

        comm.spawn(main)
        machine.run()
        assert got == ["second", "first"]

    def test_message_order_preserved_same_pair_same_tag(self):
        machine, comm = make_comm(2)
        got = []

        def main(ctx):
            if ctx.rank == 0:
                for i in range(5):
                    yield from ctx.send(1, nbytes=10, tag=0, payload=i)
            else:
                for _ in range(5):
                    msg = yield from ctx.recv(source=0, tag=0)
                    got.append(msg.payload)

        comm.spawn(main)
        machine.run()
        assert got == [0, 1, 2, 3, 4]

    def test_isend_overlaps_with_recv(self):
        machine, comm = make_comm(3)
        done_at = []

        def main(ctx):
            if ctx.rank == 0:
                req1 = ctx.isend(1, nbytes=1000)
                req2 = ctx.isend(2, nbytes=1000)
                yield req1
                yield req2
                done_at.append(ctx.env.now)
            else:
                yield from ctx.recv(source=0)

        comm.spawn(main)
        machine.run()
        # Both isends progress concurrently: 2e-3, not 4e-3.
        assert done_at == [pytest.approx(2e-3)]

    def test_send_to_self_rejected(self):
        machine, comm = make_comm(2)

        def main(ctx):
            yield from ctx.send(0, nbytes=10)

        comm.spawn(main, ranks=[0])
        with pytest.raises(SimulationError):
            machine.run()

    def test_bad_dest_rejected(self):
        machine, comm = make_comm(2)

        def main(ctx):
            yield from ctx.send(5, nbytes=10)

        comm.spawn(main, ranks=[0])
        with pytest.raises(ValueError):
            machine.run()

    def test_negative_bytes_rejected(self):
        machine, comm = make_comm(2)

        def main(ctx):
            yield from ctx.send(1, nbytes=-1)

        comm.spawn(main, ranks=[0])
        with pytest.raises(ValueError):
            machine.run()

    def test_invalid_size(self):
        machine = Machine()
        with pytest.raises(ValueError):
            Communicator(machine, size=0)

"""S-EnKF: the paper's contribution, assembled.

Simulated orchestration (Sec. 4.1–4.2, Figs. 6–8):

* ``C2 = n_sdx · n_sdy`` **compute ranks** own sub-domains; each runs a
  *helper thread* (a second DES process sharing the rank) that receives
  stage data from the I/O side while the *main thread* analyses the
  previous layer — the flow split of Fig. 8.
* ``C1 = n_cg · n_sdy`` **I/O ranks** form ``n_cg`` concurrent groups.
  Group ``g`` covers files ``{f ≡ g (mod n_cg)}``; within a group, rank
  ``j`` bar-reads latitude band ``j``.  At stage ``l`` an I/O rank reads
  the *small bar* (the layer's rows ± η) of each of its files — one seek
  each — and sends every compute rank of its band one aggregated block
  message for the stage.
* Each sub-domain's interior is split into ``L`` latitude layers updated
  one after another; only the first stage's read + communication is
  exposed, everything later hides behind computation.

Inline numerics: the multi-stage schedule corresponds to analysing each
layer as its own (sub-)sub-domain — implemented by overriding the analysis
pieces of the shared engine with the L-layer split.
"""

from __future__ import annotations

from repro.cluster.machine import Machine
from repro.cluster.params import MachineSpec
from repro.core.domain import SubDomain
from repro.faults.errors import FaultError
from repro.faults.inject import FaultInjector
from repro.faults.policy import RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.filters.base import PerfScenario, SimReport
from repro.filters.distributed import DistributedEnKF
from repro.io.execute import simulate_op_read
from repro.mpisim import Communicator
from repro.sim import Store, Timeline
from repro.sim.trace import (
    PHASE_COMM,
    PHASE_COMPUTE,
    PHASE_FAILED,
    PHASE_READ,
    PHASE_WAIT,
)
from repro.tuning.autotune import AutotuneResult, autotune
from repro.util.validation import check_divides, check_positive


class SEnKF(DistributedEnKF):
    """Multi-stage S-EnKF: layered local analyses + overlapped simulation."""

    name = "s-enkf"

    def __init__(
        self,
        radius_km: float,
        n_layers: int = 1,
        inflation: float = 1.0,
        ridge: float = 1e-8,
        executor=None,
        workers: int | None = None,
        strategy: str | None = None,
        geometry_cache=None,
    ):
        super().__init__(radius_km, inflation=inflation, ridge=ridge,
                         executor=executor, workers=workers,
                         strategy=strategy, geometry_cache=geometry_cache)
        check_positive("n_layers", n_layers)
        self.n_layers = int(n_layers)

    def _analysis_pieces(self, sd: SubDomain):
        """Each layer is analysed as its own sub-domain (same ξ/η halos)."""
        if self.n_layers == 1:
            yield sd
            return
        for layer in sd.layers(self.n_layers):
            yield SubDomain(
                grid=sd.grid,
                i=sd.i,
                j=sd.j,
                ix0=sd.ix0,
                ix1=sd.ix1,
                iy0=layer.iy0,
                iy1=layer.iy1,
                xi=sd.xi,
                eta=sd.eta,
            )

    def _plan_pieces(self, decomp):
        """Stage-major work-list: every sub-domain's layer ``l`` before any
        layer ``l+1``.

        This is the multi-stage schedule of Sec. 4.2 expressed as an
        ordering.  The batched engine prepares every observed piece
        before any run computes, so on the real wall clock the stages do
        not overlap (docs/PAPER_MAP.md); the DES simulation models the
        overlap.  Pieces write disjoint interiors, so the ordering cannot
        change the result.
        """
        if self.n_layers == 1:
            return list(decomp)
        stages: list[list[SubDomain]] = [[] for _ in range(self.n_layers)]
        for sd in decomp:
            for l, piece in enumerate(self._analysis_pieces(sd)):
                stages[l].append(piece)
        return [piece for stage in stages for piece in stage]

    @staticmethod
    def simulate(
        spec: MachineSpec,
        scenario: PerfScenario,
        n_sdx: int,
        n_sdy: int,
        n_layers: int,
        n_cg: int,
        faults: "FaultSchedule | FaultInjector | None" = None,
        retry: RetryPolicy | None = None,
    ) -> SimReport:
        return simulate_senkf(
            spec, scenario, n_sdx, n_sdy, n_layers, n_cg,
            faults=faults, retry=retry,
        )


def simulate_senkf(
    spec: MachineSpec,
    scenario: PerfScenario,
    n_sdx: int,
    n_sdy: int,
    n_layers: int,
    n_cg: int,
    prefetch_depth: int | None = None,
    faults: "FaultSchedule | FaultInjector | None" = None,
    retry: RetryPolicy | None = None,
) -> SimReport:
    """Simulate one S-EnKF assimilation with explicit tuning parameters.

    ``prefetch_depth`` bounds how many stages the I/O side may run ahead
    of the analyses (the staging-buffer budget per compute rank):
    ``None`` (default) models unbounded staging memory; ``1`` is classic
    double buffering — the I/O ranks read stage ``l+1`` while stage ``l``
    is analysed and stall beyond that.  Flow control is modelled by one
    acknowledgement per band and stage (compute rank ``(0, j)`` acks its
    band's I/O ranks when it finishes a stage — the band's ranks advance
    in lockstep, so one ack per band is representative).

    ``faults`` runs the whole orchestration under a seeded
    :class:`~repro.faults.schedule.FaultSchedule` (or a pre-bound
    :class:`~repro.faults.inject.FaultInjector`), with ``retry`` governing
    how disk faults are retried.  The resilient posture is:

    * failed bar reads are retried under ``retry``; once exhausted, the
      member is *dropped* (recorded in the report) and the run continues
      with smaller stage messages — graceful degradation;
    * an I/O rank whose kill time arrives crashes at its next read or
      send boundary; a per-group failover worker hands its remaining
      stages to the group's next surviving band peer, which re-reads the
      crashed stage in full and sends in the victim's stead (helper
      threads therefore receive by tag, not source, under faults);
    * straggler compute ranks run their local analyses slower by the
      schedule's factor;
    * dropped messages surface at drain time as a
      :class:`~repro.sim.errors.DeadlockError` naming the stuck ranks.

    With ``faults=None`` the code path is event-for-event identical to the
    fault-free simulator.  The returned report carries the run's
    :class:`~repro.faults.report.ResilienceReport` in ``resilience``.
    """
    check_positive("n_layers", n_layers)
    check_positive("n_cg", n_cg)
    check_divides("N (members)", scenario.n_members, "n_cg", n_cg)
    if prefetch_depth is not None and prefetch_depth < 1:
        raise ValueError(f"prefetch_depth must be >= 1, got {prefetch_depth}")

    injector = None
    if faults is not None:
        injector = (
            faults if isinstance(faults, FaultInjector) else FaultInjector(faults)
        )
    resilient = injector is not None
    report = injector.report if resilient else None

    machine = Machine(spec, faults=injector)
    env = machine.env
    decomp = scenario.decomposition(n_sdx, n_sdy)
    layout = scenario.layout
    n_compute = decomp.n_subdomains
    n_io = n_cg * n_sdy
    comm = Communicator(machine, size=n_compute + n_io)
    timeline = Timeline()

    def io_rank_id(g: int, j: int) -> int:
        return n_compute + g * n_sdy + j

    if resilient:
        for r, _t in injector.schedule.killed_ranks:
            if not n_compute <= r < n_compute + n_io:
                raise ValueError(
                    f"killed rank {r} is not an S-EnKF I/O rank (I/O ranks "
                    f"are {n_compute}..{n_compute + n_io - 1}); only I/O "
                    f"processors support kill + failover"
                )

    # Stage geometry is identical across longitudes: take column 0's layers.
    band_layers = {
        j: decomp.subdomain(0, j).layers(n_layers) for j in range(n_sdy)
    }
    # Per-stage compute: c × layer points (Eq. 9).
    layer_points = decomp.block_cols * (decomp.block_rows // n_layers)
    compute_cost = spec.c_point * layer_points

    ACK_TAG = -100  #: flow-control acks (distinct from stage-data tags >= 0)

    # Failover plumbing: one mailbox per concurrent group.  A crashing I/O
    # rank deposits (band, stage, surviving files) and returns; the group's
    # worker re-runs the remaining stages on a surviving peer.
    failover_boxes = (
        {g: Store(env) for g in range(n_cg)} if resilient else None
    )

    def io_crash(rank: int, g: int, j: int, l: int, files_ok: list[int]):
        report.ranks_killed.append(rank)
        timeline.add(rank, PHASE_FAILED, env.now, env.now)
        yield failover_boxes[g].put((j, l, files_ok))

    def io_stages(ctx, g: int, j: int, files_ok: list[int], l_start: int,
                  kill_at: float | None, flow_control: bool):
        """Stages ``l_start..`` of band ``j``'s group-``g`` work.

        Runs on the owner rank (``flow_control=True``, honouring its kill
        time) or on a failover peer replaying a victim's stages
        (``flow_control=False`` — adopted stages skip the staging-credit
        protocol, whose acks are addressed to the dead owner).
        """
        rank = ctx.rank

        def killed() -> bool:
            return kill_at is not None and env.now >= kill_at

        acks_received = 0
        for l in range(l_start, n_layers):
            if killed():
                yield from io_crash(rank, g, j, l, files_ok)
                return
            layer = band_layers[j][l]
            if flow_control and prefetch_depth is not None and l >= prefetch_depth:
                # Stall until the band has consumed stage l - depth.
                while acks_received < l - prefetch_depth + 1:
                    t0 = env.now
                    yield from ctx.recv(source=decomp.rank_of(0, j), tag=ACK_TAG)
                    acks_received += 1
                    timeline.add(rank, PHASE_WAIT, t0, env.now)
                if killed():
                    yield from io_crash(rank, g, j, l, files_ok)
                    return
            rows = layer.n_read_rows
            bar_bytes = layout.nbytes(rows * decomp.grid.n_x)
            for f in list(files_ok):
                if killed():
                    yield from io_crash(rank, g, j, l, files_ok)
                    return
                outcome = yield from simulate_op_read(
                    machine, timeline, rank, f, 1, bar_bytes,
                    retry=retry, report=report,
                )
                if outcome is None:
                    # Retries exhausted: degrade — drop the member and
                    # shrink this band's stage messages from here on.
                    report.drop_member(f)
                    files_ok.remove(f)
            if killed():
                yield from io_crash(rank, g, j, l, files_ok)
                return
            # One aggregated block message per compute rank of this band.
            t0 = env.now
            for i in range(n_sdx):
                sd = decomp.subdomain(i, j)
                elems = len(sd.exp_x_indices) * rows * len(files_ok)
                yield from ctx.send(
                    decomp.rank_of(i, j), layout.nbytes(elems), tag=l
                )
            timeline.add(rank, PHASE_COMM, t0, env.now)

    def io_process(ctx, g: int, j: int):
        kill_at = injector.kill_time(ctx.rank) if resilient else None
        files_ok = list(range(g, scenario.n_members, n_cg))
        yield from io_stages(ctx, g, j, files_ok, 0, kill_at, True)

    def failover_worker(g: int):
        box = failover_boxes[g]
        while True:
            j, l_start, files_ok = yield box.get()
            backup = None
            for off in range(1, n_sdy):
                cand = io_rank_id(g, (j + off) % n_sdy)
                if injector.kill_time(cand) is None:
                    backup = cand
                    break
            if backup is None:
                raise FaultError(
                    f"no surviving I/O peer in concurrent group {g} to "
                    f"adopt band {j}'s reads (all {n_sdy} peers scheduled "
                    f"to die)"
                )
            report.failovers += 1
            yield from io_stages(
                comm.rank(backup), g, j, files_ok, l_start, None, False
            )

    def helper_thread(ctx, stage_ready: Store):
        """The helper thread of Fig. 8: drains stage data, signals main."""
        _, j = decomp.ij_of(ctx.rank)
        for l in range(n_layers):
            for g in range(n_cg):
                if resilient:
                    # Under failover a stage message may arrive from a
                    # band peer acting for the dead owner: match by tag.
                    yield from ctx.recv(source=None, tag=l)
                else:
                    yield from ctx.recv(source=io_rank_id(g, j), tag=l)
            yield stage_ready.put(l)

    def compute_process(ctx):
        rank = ctx.rank
        i, j = decomp.ij_of(rank)
        cost = compute_cost
        if resilient:
            cost = compute_cost * injector.straggler_factor(rank)
        stage_ready = Store(env)
        env.process(helper_thread(ctx, stage_ready), name=f"helper[{rank}]")
        for l in range(n_layers):
            t0 = env.now
            yield stage_ready.get()
            timeline.add(rank, PHASE_WAIT, t0, env.now)
            t0 = env.now
            yield env.timeout(cost)
            timeline.add(rank, PHASE_COMPUTE, t0, env.now)
            if prefetch_depth is not None and i == 0 and l < n_layers - 1:
                # Band representative releases one staging-buffer credit
                # to each of its I/O sources (zero-byte control message).
                for g in range(n_cg):
                    ctx.isend(io_rank_id(g, j), nbytes=0, tag=ACK_TAG)

    for rank in range(n_compute):
        comm.spawn(compute_process, ranks=[rank], name="senkf-compute")
    for g in range(n_cg):
        for j in range(n_sdy):

            def make(g=g, j=j):
                def runner(ctx):
                    yield from io_process(ctx, g, j)

                return runner

            comm.spawn(make(), ranks=[io_rank_id(g, j)], name="senkf-io")
    if resilient:
        for g in range(n_cg):
            env.process(failover_worker(g), name=f"senkf-failover[{g}]")
    env.run()

    if resilient:
        report.finalize(env.now)
    return SimReport(
        filter_name="s-enkf",
        timeline=timeline,
        total_time=env.now,
        compute_ranks=list(range(n_compute)),
        io_ranks=[n_compute + k for k in range(n_io)],
        n_sdx=n_sdx,
        n_sdy=n_sdy,
        n_layers=n_layers,
        n_cg=n_cg,
        resilience=report,
    )


def simulate_senkf_autotuned(
    spec: MachineSpec,
    scenario: PerfScenario,
    n_p: int,
    epsilon: float = 1e-4,
    objective: str = "pipelined",
) -> tuple[SimReport, AutotuneResult]:
    """Auto-tune (Algorithm 2) for an ``n_p``-processor budget, then simulate.

    This is how the paper runs S-EnKF in the evaluation: "the total number
    of processors is the summation of C1 and C2, which are determined by
    Algorithm 2" (Sec. 5.1); the reported processor count is the budget
    ``n_p``, of which S-EnKF may use fewer.  The default objective is the
    overlap-feasible pipelined total (== the paper's Eq. 10 in its
    operating regime; see :func:`repro.costmodel.model.t_total_pipelined`).
    """
    params = scenario.cost_params(spec)
    result = autotune(params, n_p=n_p, epsilon=epsilon, objective=objective)
    if result is None:
        raise ValueError(f"no feasible S-EnKF configuration for n_p={n_p}")
    choice = result.choice
    report = simulate_senkf(
        spec,
        scenario,
        n_sdx=choice.n_sdx,
        n_sdy=choice.n_sdy,
        n_layers=choice.n_layers,
        n_cg=choice.n_cg,
    )
    return report, result

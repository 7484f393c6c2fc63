"""A deterministic mini reanalysis for driving the service end to end.

One fixed tiny-ocean problem (16×8 grid, 8-member P-EnKF), parameterised
only by the campaign's ``master_seed`` — so a tenant's service job and a
solo :class:`~repro.checkpoint.runner.CampaignRunner` run of the same
seed are *the same experiment*, and comparing their final checkpointed
ensembles byte for byte is the acceptance test for the whole scheduler:
queueing, preemption, chaos restarts and cancellation must never change
an answer.

:func:`run_acceptance_scenario` is that test, shared verbatim by
``tests/test_service_e2e.py`` and the ``senkf-experiments serve`` CLI
demo.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.costmodel.model import CostParams
from repro.faults.schedule import FaultSchedule
from repro.service.api import ServiceClient, campaign_payload
from repro.service.job import CostEstimate, JobSpec
from repro.service.quota import TenantQuota

__all__ = [
    "campaign_builder",
    "campaign_spec",
    "demo_faults",
    "final_ensemble",
    "run_acceptance_scenario",
    "solo_final_ensemble",
]

#: decomposition the demo filter runs (and is priced) with.
_N_SDX, _N_SDY, _N_LAYERS, _N_CG = 2, 2, 1, 1


def _demo_params() -> CostParams:
    """Eq. (7)–(10) constants matching the demo problem's shape (the
    machine constants are nominal — the point is relative pricing)."""
    return CostParams(
        n_x=16, n_y=8, n_members=8, h=8.0, xi=2, eta=1,
        a=1e-4, b=1e-8, c=1e-6, theta=1e-8,
    )


def demo_faults(seed: int = 23) -> FaultSchedule:
    """A mild, deterministic chaos regime: transient member-read and
    member-write faults the checkpoint retries absorb."""
    return FaultSchedule(
        seed=seed,
        member_fault_rate=0.15,
        member_fault_attempts=1,
        member_write_fault_rate=0.1,
        member_write_attempts=1,
    )


def campaign_builder(
    master_seed: int,
    *,
    inflation: float = 1.05,
    n_members: int = 8,
    health: bool = True,
):
    """``build()`` closure for :func:`~repro.service.api.campaign_payload`.

    Rebuilds the full experiment from scratch on every call — exactly
    what a re-queued attempt needs — and is a pure function of
    ``master_seed``.  ``health`` attaches a fresh
    :class:`~repro.telemetry.health.HealthProbe` with the stock filter
    rules (pure observation — bit-identity is untouched); ``inflation``/
    ``n_members`` exist so tests can build the *pathological* variant
    (inflation off, tiny ensemble) whose collapse the probe must catch.
    """

    def build():
        from repro.core import (
            Decomposition,
            Grid,
            ObservationNetwork,
            radius_to_halo,
        )
        from repro.filters import PEnKF
        from repro.models import (
            AdvectionDiffusionModel,
            TwinExperiment,
            correlated_ensemble,
        )

        grid = Grid(n_x=16, n_y=8, dx_km=5.0, dy_km=5.0)
        model = AdvectionDiffusionModel(grid, u_max=1.0, kappa=0.05, dt=0.2)
        radius_km = 12.0
        xi, eta = radius_to_halo(radius_km, grid.dx_km, grid.dy_km)
        decomp = Decomposition(grid, n_sdx=_N_SDX, n_sdy=_N_SDY, xi=xi, eta=eta)
        network = ObservationNetwork.random(
            grid, m=30, obs_error_std=0.2,
            rng=np.random.default_rng(master_seed + 1),
        )
        from repro.telemetry.health import HealthProbe

        filt = PEnKF(radius_km=radius_km, inflation=inflation, ridge=1e-2)
        twin = TwinExperiment(
            model,
            network,
            lambda states, y, rng: filt.assimilate(
                decomp, states, network, y, rng=rng
            ),
            steps_per_cycle=2,
            master_seed=master_seed,
            health=HealthProbe() if health else None,
        )
        rng = np.random.default_rng(master_seed + 2)
        truth0 = correlated_ensemble(grid, 1, length_scale_km=15.0, rng=rng)[:, 0]
        ensemble0 = correlated_ensemble(
            grid, n_members, length_scale_km=15.0, mean=np.zeros(grid.n),
            std=0.8, rng=rng,
        )
        return twin, truth0, ensemble0

    return build


def campaign_spec(
    tenant: str,
    master_seed: int,
    n_cycles: int,
    *,
    priority: int = 0,
    slots: int = 1,
    interval: int = 1,
    faults: FaultSchedule | None = None,
    name: str = "",
    inflation: float = 1.05,
    n_members: int = 8,
) -> JobSpec:
    """One demo campaign as a priced, admission-ready submission."""
    cost = CostEstimate(
        params=_demo_params(),
        n_sdx=_N_SDX, n_sdy=_N_SDY, n_layers=_N_LAYERS, n_cg=_N_CG,
        n_cycles=n_cycles,
    )
    return JobSpec(
        tenant=tenant,
        payload=campaign_payload(
            campaign_builder(
                master_seed, inflation=inflation, n_members=n_members
            ),
            n_cycles,
            interval=interval,
            faults=faults,
            config={"experiment": "service-demo", "seed": master_seed},
        ),
        name=name or f"{tenant}-seed{master_seed}",
        slots=slots,
        priority=priority,
        cost=cost,
        faults=faults,
    )


def solo_final_ensemble(
    master_seed: int,
    n_cycles: int,
    directory: str | Path,
    *,
    faults: FaultSchedule | None = None,
    interval: int = 1,
) -> np.ndarray:
    """The reference answer: the same campaign run directly, no service."""
    from repro.checkpoint.runner import CampaignRunner

    twin, truth0, ensemble0 = campaign_builder(master_seed)()
    runner = CampaignRunner(
        twin, directory, interval=interval, faults=faults,
        config={"experiment": "service-demo", "seed": master_seed},
    )
    try:
        runner.run(truth0, ensemble0, n_cycles)
    finally:
        close = getattr(twin.assimilate, "close", None)
        if close is not None:
            close()
    return final_ensemble(directory)


def final_ensemble(directory: str | Path) -> np.ndarray:
    """Newest committed analysis ensemble under one checkpoint root."""
    from repro.checkpoint.store import CheckpointStore

    return CheckpointStore(directory).load_best().ensemble


def run_acceptance_scenario(
    root: str | Path,
    *,
    n_cycles: int = 6,
    total_slots: int = 2,
    chaos: bool = True,
    timeout: float = 300.0,
    exporter_port: int | None = None,
) -> dict:
    """The service acceptance run: three tenants, chaos on, one preemption.

    Three tenants submit demo campaigns (distinct seeds) onto a
    ``total_slots``-slot service; once the low-priority job has made
    progress a high-priority job arrives, forcing a
    checkpoint-then-release preemption.  Every job's final checkpointed
    ensemble is compared bit for bit against a solo run of the same
    seed.  Returns the scenario summary (used by the e2e test, the
    service benchmark and the CLI demo).

    With ``exporter_port`` (0 = ephemeral) the service binds its
    :class:`~repro.telemetry.exporter.MetricsExporter` and the scenario
    scrapes ``/metrics`` + ``/healthz`` *while jobs run*, returning the
    exposition text in ``metrics_text`` / ``healthz`` — the live health
    plane exercised end to end.
    """
    import urllib.request

    root = Path(root)
    faults = demo_faults() if chaos else None
    quotas = {
        "ops": TenantQuota(weight=2.0),
        "research": TenantQuota(weight=1.0),
        "student": TenantQuota(weight=1.0, max_running_slots=1),
    }
    seeds = {"ops": 101, "research": 202, "student": 303, "urgent": 404}
    metrics_text: str | None = None
    healthz: dict | None = None
    wall0 = time.perf_counter()
    with ServiceClient(
        total_slots=total_slots, root=root / "service", quotas=quotas,
        exporter_port=exporter_port,
    ) as client:
        low_id = client.submit(campaign_spec(
            "student", seeds["student"], n_cycles,
            priority=0, faults=faults, name="low-priority",
        ))
        ids = {
            "student": low_id,
            "ops": client.submit(campaign_spec(
                "ops", seeds["ops"], n_cycles, priority=0, faults=faults,
            )),
            "research": client.submit(campaign_spec(
                "research", seeds["research"], n_cycles,
                priority=0, faults=faults,
            )),
        }
        # Let the low-priority job commit at least one cycle before the
        # urgent submission arrives, so the preemption exercises a real
        # checkpoint-then-release mid-campaign.
        deadline = time.monotonic() + timeout
        while client.status(low_id)["progress"] < 1:
            if time.monotonic() > deadline:
                raise TimeoutError("low-priority job never made progress")
            if client.status(low_id)["state"] in ("failed", "cancelled"):
                raise RuntimeError("low-priority job died before preemption")
            time.sleep(0.02)
        ids["urgent"] = client.submit(campaign_spec(
            "ops", seeds["urgent"], n_cycles,
            priority=10, faults=faults, name="urgent",
        ))
        exporter = client.service.exporter
        if exporter is not None:
            # Mid-run scrape: jobs are still executing right now.
            with urllib.request.urlopen(
                f"{exporter.url}/metrics", timeout=30
            ) as resp:
                metrics_text = resp.read().decode()
            with urllib.request.urlopen(
                f"{exporter.url}/healthz", timeout=30
            ) as resp:
                import json as _json

                healthz = _json.loads(resp.read().decode())
        for job_id in ids.values():
            client.result(job_id, timeout=timeout)
        jobs = {name: client.status(job_id) for name, job_id in ids.items()}
        report = client.report(
            notes=[f"acceptance scenario, chaos={'on' if chaos else 'off'}"]
        )
    wall = time.perf_counter() - wall0

    identical: dict[str, bool] = {}
    for name, job_id in ids.items():
        tenant = jobs[name]["tenant"]
        service_dir = root / "service" / tenant / job_id
        solo_dir = root / "solo" / name
        solo = solo_final_ensemble(
            seeds[name], n_cycles, solo_dir, faults=faults
        )
        served = final_ensemble(service_dir)
        identical[name] = bool(np.array_equal(solo, served))
    return {
        "root": root,
        "ids": ids,
        "jobs": jobs,
        "identical": identical,
        "preemptions": sum(j["preemptions"] for j in jobs.values()),
        "wall_seconds": wall,
        "report": report,
        "metrics_text": metrics_text,
        "healthz": healthz,
    }

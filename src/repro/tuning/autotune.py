"""Algorithm 2: earnings-rate auto-tuning of the S-EnKF parameters.

For each compute budget ``C2``:

1. sweep the I/O budget ``C1`` upward, keeping the strictly-improving
   prefix of Algorithm-1 solutions (the paper's ``t``/``cs`` arrays);
2. walk the improvements and stop at the first marginal gain below ε
   (Eq. 14) — that index is the *economic* ``C1``;
3. price the full run via ``T_total`` (Eq. 10).

The tuple with the smallest ``T_total`` over all ``C2`` wins, subject to
``C1 + C2 ≤ n_p``.

Transcription note: the paper's line 26 reads ``if (T_min == 0) or
(0 < T_min and T_min < T_total)`` which as printed would *maximise*
``T_total``; the surrounding text ("we find the minimal T_total") makes
the intent unambiguous, so we implement the minimisation.

Complexity note: the paper loops ``C2`` over every integer in
``[1, n_p]``; only divisor-realisable budgets admit Algorithm-1 solutions,
so we iterate those directly — an identical result, orders of magnitude
fewer iterations (needed to auto-tune 12,000-processor configurations in
Python).  Set ``exhaustive=True`` to run the verbatim integer sweep (tests
use it to prove equivalence on small problems).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.costmodel.model import (
    CostParams,
    expected_read_inflation,
    t_total,
    t_total_pipelined,
)
from repro.tuning.optmodel import (
    TuningChoice,
    feasible_c1_values,
    feasible_c2_values,
    solve_optimization_model,
)
from repro.util.validation import check_positive


@dataclass(frozen=True)
class AutotuneResult:
    """The tuned decision and its modelled cost breakdown."""

    choice: TuningChoice
    t_total: float
    c1: int
    c2: int
    #: the (C1, T1) frontier the earnings rule walked, for the winning C2
    frontier: tuple[tuple[int, float], ...]

    @property
    def total_processors(self) -> int:
        return self.c1 + self.c2


def economic_choice(
    frontier: Sequence[tuple[int, float, TuningChoice]], epsilon: float
) -> TuningChoice:
    """Apply the earnings-rate rule (13)–(14) to a (C1, T1, choice) frontier.

    ``frontier`` must be sorted by C1 ascending with strictly decreasing
    T1 (the improving prefix Algorithm 2 collects).  Returns the first
    choice whose marginal improvement rate drops below ``epsilon``; if the
    rate never drops, the last (largest-C1) choice.
    """
    if not frontier:
        raise ValueError("empty frontier")
    check_positive("epsilon", epsilon)
    for m in range(len(frontier) - 1):
        c1_m, t1_m, choice_m = frontier[m]
        c1_next, t1_next, _ = frontier[m + 1]
        rate = (t1_m - t1_next) / (c1_next - c1_m)
        if rate < epsilon:
            return choice_m
    return frontier[-1][2]


def _frontier_for_c2(
    params: CostParams,
    c2: int,
    c1_limit: int,
    exhaustive: bool,
    objective: str,
) -> list[tuple[int, float, TuningChoice]]:
    """Algorithm 2 lines 6–18: the strictly-improving (C1, score) prefix."""
    if c1_limit < 1:
        return []
    if exhaustive:
        c1_values: Sequence[int] = range(1, c1_limit + 1)
    else:
        c1_values = feasible_c1_values(params, c2, c1_limit)
    frontier: list[tuple[int, float, TuningChoice]] = []
    best = None
    for c1 in c1_values:
        sol = solve_optimization_model(params, c1, c2, objective=objective)
        if sol is None:
            continue
        if best is None or sol.score < best:
            best = sol.score
            frontier.append((c1, sol.score, sol))
    return frontier


def read_inflation_from_schedule(faults, retry=None) -> float:
    """Expected read-term multiplier for a known chaos regime.

    Derives the per-request fault statistics from a
    :class:`~repro.faults.schedule.FaultSchedule` and the attempt cap
    from a :class:`~repro.faults.policy.RetryPolicy` (default policy when
    None), then prices them via
    :func:`~repro.costmodel.model.expected_read_inflation`.
    """
    if retry is None:
        from repro.faults.policy import RetryPolicy

        retry = RetryPolicy()
    return expected_read_inflation(
        fault_rate=faults.disk_fault_rate,
        max_retries=retry.max_retries,
        slowdown_rate=faults.disk_slowdown_rate,
        slowdown_factor=faults.disk_slowdown_factor,
    )


def read_inflation_from_metrics(snapshot: dict) -> float:
    """Measured read-term multiplier from a metrics snapshot.

    Uses the observed retry spend of an instrumented run — each retry is
    one extra service interval, so the multiplier is
    ``1 + fault.retries / io.members_read``.  Returns 1.0 when the
    snapshot records no reads (nothing to infer from).
    """
    counters = snapshot.get("counters", snapshot) or {}
    reads = float(counters.get("io.members_read", 0.0))
    retries = float(counters.get("fault.retries", 0.0))
    if reads <= 0.0:
        return 1.0
    return 1.0 + retries / reads


def autotune(
    params: CostParams,
    n_p: int,
    epsilon: float,
    exhaustive: bool = False,
    objective: str = "paper",
    faults=None,
    retry=None,
) -> AutotuneResult | None:
    """Algorithm 2: optimal ``(n_sdx, n_sdy, L, n_cg)`` for ``n_p`` processors.

    ``objective`` selects the cost function threaded through Algorithms 1
    and 2: ``"paper"`` is the verbatim Eq. (11)/(10) pair; ``"pipelined"``
    replaces both with the overlap-feasible total (identical whenever the
    analysis is the per-stage bottleneck — see
    :func:`repro.costmodel.model.t_total_pipelined`).

    ``faults`` makes the tuning *fault-aware*: Algorithm 2 as printed
    prices a fault-free machine, but under a known fault regime the
    expected retry spend inflates T1's read term, which shifts the
    economic C1/C2 split.  Pass a
    :class:`~repro.faults.schedule.FaultSchedule` (with ``retry``
    optionally bounding the attempts) and the whole objective — Algorithm
    1's T1 and the final T_total ranking alike — is priced with
    ``params.read_inflation`` set to the expected-retries factor.  A
    ``params`` that already carries ``read_inflation > 1`` (e.g. from
    :func:`read_inflation_from_metrics`) is used as-is; combining both
    raises, one regime must win.

    Returns ``None`` if no feasible configuration fits in ``n_p``
    processors (needs at least one compute and one I/O rank).
    """
    check_positive("n_p", n_p)
    check_positive("epsilon", epsilon)
    if objective not in ("paper", "pipelined"):
        raise ValueError(f"unknown objective {objective!r}")
    if faults is not None:
        if params.read_inflation != 1.0:
            raise ValueError(
                "pass either a FaultSchedule or params with read_inflation "
                "set, not both"
            )
        params = params.with_(
            read_inflation=read_inflation_from_schedule(faults, retry)
        )

    if exhaustive:
        c2_values: Sequence[int] = range(1, n_p + 1)
    else:
        c2_values = feasible_c2_values(params, n_p)

    total_fn = t_total if objective == "paper" else t_total_pipelined
    best: AutotuneResult | None = None
    for c2 in c2_values:
        frontier = _frontier_for_c2(params, c2, n_p - c2, exhaustive, objective)
        if not frontier:
            continue
        choice = economic_choice(frontier, epsilon)
        total = total_fn(
            params,
            n_sdx=choice.n_sdx,
            n_sdy=choice.n_sdy,
            n_layers=choice.n_layers,
            n_cg=choice.n_cg,
        )
        if best is None or total < best.t_total:
            best = AutotuneResult(
                choice=choice,
                t_total=total,
                c1=choice.c1,
                c2=choice.c2,
                frontier=tuple((c1, t1v) for c1, t1v, _ in frontier),
            )
    return best

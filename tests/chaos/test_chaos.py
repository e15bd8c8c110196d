"""Chaos tests: sampled fault schedules, exact-or-abort, replayable.

Each chaos seed drives ``SCHEDULES_PER_SEED`` sampled fault schedules
through full rounds on one shared deployment (state deliberately carries
over — a client left crashed by round N must be recovered by round N+1's
engine, like a real fleet).  The invariant under every schedule is the
design's exact-or-abort guarantee:

* a finalized round's aggregate equals, **bit for bit**, the fixed-point
  mean over exactly the contributions marked accepted — no injected
  fault may double-count a submission or leak a live mask into repair;
* an aborted round raises :class:`RoundAbortedError` carrying a partial
  ``aborted=True`` report with its phase window closed, and publishes no
  aggregate.

Determinism is asserted separately: the same chaos seed replays the same
fault schedule, fault firings, outcomes, and aggregates on a fresh
deployment.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.crypto.drbg import HmacDrbg
from repro.errors import RoundAbortedError
from repro.experiments.common import Deployment
from repro.faults import FaultInjector, FaultPlan
from repro.invariants import exact_mean
from repro.runtime.telemetry import OUTCOME_ACCEPTED

SCHEDULES_PER_SEED = 50
NUM_USERS = 4
FAULT_RATES = (0.02, 0.05, 0.1, 0.2)

DEFAULT_SEEDS = ("chaos-a", "chaos-b", "chaos-c")
SEEDS = (
    (os.environ["CHAOS_SEED"],) if os.environ.get("CHAOS_SEED") else DEFAULT_SEEDS
)


def _build(seed: str) -> Deployment:
    return Deployment.build(
        num_users=NUM_USERS,
        seed=b"chaos:" + seed.encode(),
        sentences_per_user=12,
    )


def _schedule(seed: str, index: int, user_ids) -> tuple[FaultPlan, FaultInjector]:
    rate = FAULT_RATES[index % len(FAULT_RATES)]
    plan = FaultPlan.sample(
        HmacDrbg(seed.encode(), personalization=f"chaos-plan-{index}"),
        rate,
        clients=user_ids,
        rounds=(index + 1,),
        label=f"{seed}#{index}",
    )
    injector = FaultInjector(plan, seed=f"{seed}:{index}".encode())
    return plan, injector


def _run_schedule(deployment, round_id, injector, user_ids, vectors):
    """One round under one schedule; returns a comparable outcome tuple."""
    deployment.enable_faults(injector)
    try:
        report = deployment.engine.run_round(
            round_id,
            user_ids,
            vectors,
            deployment.features.bigrams,
            recovery_threshold=0.25,
        )
    except RoundAbortedError as err:
        report = getattr(err, "report", None)
        assert report is not None, "abort must carry its partial report"
        assert report.aborted and report.abort_reason
        assert report.aggregate is None
        assert report.phases, "abort must close its phase window into the report"
        deployment.engine.abandon_round(round_id)
        return ("aborted", report.abort_reason, tuple(sorted(report.outcomes.items())))
    accepted = [
        u for u in report.participants if report.outcomes.get(u) == OUTCOME_ACCEPTED
    ]
    assert accepted, "a finalized round must have accepted contributions"
    truth = exact_mean(deployment.codec, vectors, accepted)
    assert np.array_equal(np.asarray(report.aggregate), truth), (
        f"round {round_id}: finalized aggregate is not the exact mean over "
        f"the {len(accepted)} accepted contributions"
    )
    return (
        "finalized",
        tuple(float(v) for v in np.asarray(report.aggregate)),
        tuple(sorted(report.outcomes.items())),
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_sampled_schedules_are_exact_or_abort(seed):
    deployment = _build(seed)
    user_ids = [user.user_id for user in deployment.corpus.users]
    vectors = deployment.local_vectors()
    finalized = aborted = 0
    for index in range(SCHEDULES_PER_SEED):
        _, injector = _schedule(seed, index, user_ids)
        kind, *_ = _run_schedule(
            deployment, index + 1, injector, user_ids, vectors
        )
        if kind == "finalized":
            finalized += 1
        else:
            aborted += 1
    assert finalized + aborted == SCHEDULES_PER_SEED
    # The harness is only meaningful if faults actually bite AND most
    # rounds still make it through repair/recovery.
    assert finalized > aborted


@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_replays_identical_schedule_and_outcome(seed):
    replays = []
    for _ in range(2):
        deployment = _build(seed)
        user_ids = [user.user_id for user in deployment.corpus.users]
        vectors = deployment.local_vectors()
        fired = []
        outcomes = []
        for index in range(8):
            plan, injector = _schedule(seed, index, user_ids)
            outcomes.append(
                _run_schedule(deployment, index + 1, injector, user_ids, vectors)
            )
            fired.append((plan.label, injector.fired_log()))
        replays.append((fired, outcomes))
    assert replays[0][0] == replays[1][0], "fault firings must replay exactly"
    assert replays[0][1] == replays[1][1], "round outcomes must replay exactly"


def test_distinct_seeds_differ():
    """Sanity: the schedule space is actually being sampled."""
    logs = []
    for seed in ("chaos-a", "chaos-b"):
        deployment = _build(seed)
        user_ids = [user.user_id for user in deployment.corpus.users]
        vectors = deployment.local_vectors()
        fired = []
        for index in range(6):
            _, injector = _schedule(seed, index, user_ids)
            _run_schedule(deployment, index + 1, injector, user_ids, vectors)
            fired.append(injector.fired_log())
        logs.append(tuple(fired))
    assert logs[0] != logs[1]

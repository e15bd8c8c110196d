"""Adaptive deadlines, hedged re-delivery, partition trimming, late replies.

The controller unit tests pin the cutoff arithmetic; the engine tests
pin the three fleet defenses end to end on real deployments — including
the satellite bugfix: a reply that lands *after* the phase deadline must
be discarded (slot evicted, repaired by reveal), never double-counted
against the deadline bookkeeping.
"""

import numpy as np
import pytest

from repro.crypto.drbg import HmacDrbg
from repro.experiments.common import Deployment
from repro.invariants import exact_mean
from repro.network.adversary import NetworkAdversary
from repro.network.conditions import (
    Episode,
    FleetPlan,
    LinkConditions,
    LinkSchedule,
)
from repro.network.transport import REPLY_SUFFIX
from repro.runtime import messages as m
from repro.runtime.deadlines import AdaptiveDeadlines, PhaseDeadlineController
from repro.runtime.telemetry import (
    OUTCOME_ACCEPTED,
    OUTCOME_DEADLINE_MISSED,
    OUTCOME_PARTITIONED,
)


POLICY = AdaptiveDeadlines(
    percentile=90.0, multiplier=5.0, min_budget_ms=1000.0, warmup=2
)


# ------------------------------------------------------------- controller


def test_no_cutoff_until_warmup():
    controller = PhaseDeadlineController(POLICY, 0.0, expected_ops=4)
    assert controller.straggler_threshold_ms() is None
    assert controller.cutoff_ms() is None
    assert controller.observe(100.0) is False  # still warming up
    assert controller.cutoff_ms() is None


def test_cutoff_scales_with_expected_ops():
    controller = PhaseDeadlineController(POLICY, 500.0, expected_ops=4)
    controller.observe(100.0)
    controller.observe(100.0)
    assert controller.straggler_threshold_ms() == pytest.approx(500.0)
    # budget = max(min_budget, threshold * ops) = max(1000, 500 * 4)
    assert controller.cutoff_ms() == pytest.approx(500.0 + 2000.0)


def test_min_budget_floors_small_phases():
    controller = PhaseDeadlineController(POLICY, 0.0, expected_ops=1)
    controller.observe(100.0)
    controller.observe(100.0)
    assert controller.cutoff_ms() == pytest.approx(1000.0)


def test_straggler_judged_against_prior_samples():
    controller = PhaseDeadlineController(POLICY, 0.0, expected_ops=4)
    controller.observe(100.0)
    controller.observe(100.0)
    # 600 > 500 (the threshold *before* this sample joins the pool).
    assert controller.observe(600.0) is True
    assert controller.stragglers == 1
    # The slow sample now stretches the tolerance — adaptive, not fixed.
    assert controller.straggler_threshold_ms() > 500.0


def test_slow_start_earns_longer_budget():
    fast = PhaseDeadlineController(POLICY, 0.0, expected_ops=4)
    slow = PhaseDeadlineController(POLICY, 0.0, expected_ops=4)
    for _ in range(3):
        fast.observe(50.0)
        slow.observe(800.0)
    assert slow.cutoff_ms() > fast.cutoff_ms()


# ------------------------------------------------------------ test doubles


class _DropFirstReply(NetworkAdversary):
    """Drop the first reply of one kind; the handler has already run."""

    def __init__(self, kind: str) -> None:
        self.kind = kind + REPLY_SUFFIX
        self.dropped = 0

    def process(self, message):
        if message.kind == self.kind and not self.dropped:
            self.dropped += 1
            return None
        return message


class _DelayNthReply(NetworkAdversary):
    """Advance the clock while the n-th reply of a kind is in flight."""

    def __init__(self, clock, kind: str, n: int, delay_ms: float) -> None:
        self.clock = clock
        self.kind = kind + REPLY_SUFFIX
        self.n = n
        self.delay_ms = delay_ms
        self.seen = 0

    def process(self, message):
        if message.kind == self.kind:
            self.seen += 1
            if self.seen == self.n:
                self.clock.advance(self.delay_ms)
        return message


def _deployment(seed: bytes, num_users: int = 4) -> Deployment:
    return Deployment.build(
        num_users=num_users,
        seed=seed,
        sentences_per_user=3,
        max_features=8,
    )


def _round_inputs(deployment: Deployment):
    users = sorted(deployment.clients)
    return users, deployment.local_vectors(users), deployment.features.bigrams


# ------------------------------------------------------- engine integration


def test_adaptive_round_matches_fixed_round_on_a_clean_network():
    """On a healthy wire the adaptive machinery must be pure telemetry."""
    baseline = _deployment(b"adaptive-equiv")
    users, vectors, features = _round_inputs(baseline)
    fixed = baseline.engine.run_round(1, users, vectors, features)

    adaptive_dep = _deployment(b"adaptive-equiv")
    report = adaptive_dep.engine.run_round(
        1, users, vectors, features, adaptive=AdaptiveDeadlines()
    )
    assert report.outcomes == fixed.outcomes
    assert np.array_equal(
        np.asarray(report.aggregate), np.asarray(fixed.aggregate)
    )
    assert report.late_replies_discarded == 0
    assert report.hedged_deliveries == 0
    assert report.partition_trimmed == 0


def test_hedged_redelivery_recovers_a_dropped_reply():
    """A lost reply costs one hedged re-delivery, not the participant.

    ``max_attempts=1`` removes ordinary retries, so the hedge is the only
    path back: it re-sends with a retransmission attempt number, the
    client answers from its idempotency cache, and nothing re-executes.
    """
    deployment = _deployment(b"hedge")
    deployment.engine.max_attempts = 1
    deployment.network.interpose(_DropFirstReply(m.KIND_CONTRIBUTE))
    users, vectors, features = _round_inputs(deployment)
    report = deployment.engine.run_round(
        1, users, vectors, features, adaptive=AdaptiveDeadlines()
    )
    assert report.hedged_deliveries == 1
    assert all(
        report.outcomes[user] == OUTCOME_ACCEPTED for user in users
    )
    assert np.array_equal(
        np.asarray(report.aggregate),
        exact_mean(deployment.codec, vectors, users),
    )


def test_partitioned_client_is_trimmed_not_timed_out():
    deployment = _deployment(b"partition-trim")
    users, vectors, features = _round_inputs(deployment)
    victim = users[0]
    plan = FleetPlan(
        profile="test",
        label="test",
        horizon_ms=1e9,
        links={
            victim: LinkSchedule(
                client_id=victim,
                extra_latency_ms=0.0,
                jitter_ms=0.0,
                spike_rate=0.0,
                spike_ms=(0.0, 0.0),
                burst_start_rate=0.0,
                burst_length=(1, 1),
                duplicate_rate=0.0,
                partitions=(Episode(start_ms=0.0, end_ms=1e9),),
                disconnects=(),
                clock_skew_ms=0.0,
                firmware_skew=False,
                firmware_perturb_rate=0.0,
            )
        },
        epoch_bumps=(),
    )
    conditions = LinkConditions(
        plan, deployment.network.clock, HmacDrbg(b"trim")
    )
    conditions.attach(deployment.network)
    deployment.network.interpose(conditions)
    deployment.engine.attach_conditions(conditions)
    report = deployment.engine.run_round(1, users, vectors, features)
    assert report.outcomes[victim] == OUTCOME_PARTITIONED
    assert report.partition_trimmed == 1
    survivors = [u for u in users if u != victim]
    assert all(report.outcomes[u] == OUTCOME_ACCEPTED for u in survivors)
    assert np.array_equal(
        np.asarray(report.aggregate),
        exact_mean(deployment.codec, vectors, survivors),
    )
    # No traffic was wasted probing the dead link.
    assert conditions.offline_drops == 0


def test_late_reply_is_discarded_not_double_counted():
    """Satellite bugfix pin: a reply landing after the phase deadline.

    The contribution *was* accepted by the service (the handler ran);
    the engine must notice the deadline passed while the reply was in
    flight, evict the submission, revert the slot, and let §3 reveal
    repair cover it — the participant is deadline-missed, the aggregate
    excludes it, and the books still balance.
    """
    deployment = _deployment(b"late-reply")
    users, vectors, features = _round_inputs(deployment)
    delayer = _DelayNthReply(
        deployment.network.clock,
        m.KIND_CONTRIBUTE,
        n=len(users),  # only the last reply is late: the phase cutoff
        delay_ms=10_000.0,  # has passed for nobody else
    )
    deployment.network.interpose(delayer)
    report = deployment.engine.run_round(
        1,
        users,
        vectors,
        features,
        adaptive=AdaptiveDeadlines(min_budget_ms=5_000.0, hedge=False),
    )
    victim = users[-1]
    assert delayer.seen == len(users)
    assert report.late_replies_discarded == 1
    assert report.outcomes[victim] == OUTCOME_DEADLINE_MISSED
    assert report.masks_repaired >= 1  # the evicted slot healed by reveal
    survivors = [u for u in users if u != victim]
    assert all(report.outcomes[u] == OUTCOME_ACCEPTED for u in survivors)
    assert np.array_equal(
        np.asarray(report.aggregate),
        exact_mean(deployment.codec, vectors, survivors),
    )
    # The reply leg accounting is untouched by the discard: the late
    # reply was *delivered* (then discarded above the transport), and
    # replies still never count as request traffic.
    assert deployment.network.replies_delivered > len(users)


def test_late_discard_survives_replay_of_the_evicted_nonce():
    """After eviction the slot repairs by reveal; a replay of the evicted
    submission must not resurrect it."""
    deployment = _deployment(b"late-replay")
    users, vectors, features = _round_inputs(deployment)
    delayer = _DelayNthReply(
        deployment.network.clock, m.KIND_CONTRIBUTE, n=len(users),
        delay_ms=10_000.0,
    )
    deployment.network.interpose(delayer)
    report = deployment.engine.run_round(
        1, users, vectors, features,
        adaptive=AdaptiveDeadlines(min_budget_ms=5_000.0, hedge=False),
    )
    assert report.late_replies_discarded == 1
    survivors = [u for u in users if report.outcomes[u] == OUTCOME_ACCEPTED]
    # A second, clean round over the same deployment still finalizes
    # exactly: the eviction left no wedged state behind.
    deployment.network.clear_adversaries()
    second = deployment.engine.run_round(2, users, vectors, features)
    assert all(second.outcomes[u] == OUTCOME_ACCEPTED for u in users)
    assert len(survivors) == len(users) - 1

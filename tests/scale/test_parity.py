"""Serial-vs-parallel parity: the scale path must be bit-exact.

Every comparison here is zero-tolerance: aggregates compared with
``np.array_equal`` (no tolerance), outcome maps, ecall counts, enclave
cycle meters, rejection ledgers, and the accepted contributions' actual
ring payloads and nonces.  Fallback tests assert *full* report equality
— including transport telemetry — because an ineligible round must take
the serial path itself, not a lookalike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.drbg import HmacDrbg
from repro.errors import RoundAbortedError
from repro.experiments.common import Deployment
from repro.faults import FaultInjector, FaultPlan
from repro.invariants import exact_mean
from repro.runtime.telemetry import (
    OUTCOME_ACCEPTED,
    OUTCOME_DROPOUT,
    OUTCOME_VALIDATION_REJECTED,
)
from repro.scale import ScaleConfig

from tests.scale.test_routing import route_of


def _build(
    workers=0, shards=1, chunk_size=32, num_users=8, seed=b"scale-parity", **options
):
    parallelism = (
        ScaleConfig(workers=workers, shards=shards, chunk_size=chunk_size)
        if workers
        else None
    )
    return Deployment.build(
        num_users=num_users, seed=seed, parallelism=parallelism, **options
    )


def _run(deployment, round_id=1, vectors=None, **round_kwargs):
    users = [u.user_id for u in deployment.corpus.users]
    vectors = vectors or deployment.local_vectors()
    with deployment.engine as engine:
        return engine.run_round(
            round_id, users, vectors, deployment.features.bigrams, **round_kwargs
        )


def _assert_bit_exact(serial, parallel, *, copy_cycles=True):
    assert np.array_equal(serial.aggregate, parallel.aggregate)
    assert serial.outcomes == parallel.outcomes
    assert serial.ecalls == parallel.ecalls
    skipped = () if copy_cycles else ("boundary-copies",)
    s_cycles, p_cycles = (
        {bucket: n for bucket, n in report.enclave_cycles.items() if bucket not in skipped}
        for report in (serial, parallel)
    )
    assert s_cycles == p_cycles
    assert serial.masks_repaired == parallel.masks_repaired
    assert serial.num_contributions == parallel.num_contributions
    assert serial.rejected == parallel.rejected
    assert serial.quarantined == parallel.quarantined
    assert serial.violations == parallel.violations
    s_accepted = serial.service_result.accepted
    p_accepted = parallel.service_result.accepted
    assert [c.nonce for c in s_accepted] == [c.nonce for c in p_accepted]
    assert [c.ring_payload for c in s_accepted] == [
        c.ring_payload for c in p_accepted
    ]
    assert [c.signature for c in s_accepted] == [c.signature for c in p_accepted]


def _assert_identical_reports(serial, parallel):
    """Fallback parity: the whole report, transport telemetry included."""
    _assert_bit_exact(serial, parallel)
    assert serial.messages_sent == parallel.messages_sent
    assert serial.messages_dropped == parallel.messages_dropped
    assert serial.bytes_on_wire == parallel.bytes_on_wire
    assert serial.latency_ms == parallel.latency_ms
    assert serial.retries == parallel.retries
    assert serial.phases == parallel.phases
    assert serial.faults_injected == parallel.faults_injected


def test_honest_round_parity():
    serial = _run(_build())
    parallel = _run(_build(workers=2, shards=3))
    _assert_bit_exact(serial, parallel)
    # The parallel path actually engaged: client traffic left the bus.
    assert parallel.messages_sent < serial.messages_sent


def test_dropout_parity():
    users = [u.user_id for u in _build().corpus.users]
    kwargs = dict(dropouts=(users[1],), collect_dropouts=(users[4], users[6]))
    serial = _run(_build(), **kwargs)
    parallel = _run(_build(workers=2, shards=3), **kwargs)
    _assert_bit_exact(serial, parallel)
    assert parallel.masks_repaired == 3


@pytest.mark.parametrize(
    ("workers", "shards", "chunk_size"),
    [
        (2, 1, 32),  # every collect-dropout lands in the single shard
        (2, 32, 4),  # far more shards than participants (most shards empty)
        (1, 4, 1),  # one-task chunks: every shard splits into size-1 chunks
        (2, 8, 1),  # both boundaries at once
    ],
)
def test_shard_boundary_dropout_repair(workers, shards, chunk_size):
    users = [u.user_id for u in _build().corpus.users]
    half_out = tuple(users[::2])  # heavy repair load across shard boundaries
    serial = _run(_build(), collect_dropouts=half_out)
    parallel = _run(
        _build(workers=workers, shards=shards, chunk_size=chunk_size),
        collect_dropouts=half_out,
    )
    _assert_bit_exact(serial, parallel)
    assert parallel.masks_repaired == len(half_out)


def test_abort_parity_when_no_survivors():
    users = [u.user_id for u in _build().corpus.users]
    everyone = tuple(users)
    with pytest.raises(RoundAbortedError) as serial_err:
        _run(_build(), collect_dropouts=everyone)
    with pytest.raises(RoundAbortedError) as parallel_err:
        _run(_build(workers=2, shards=3), collect_dropouts=everyone)
    assert str(serial_err.value) == str(parallel_err.value)
    assert (
        serial_err.value.report.abort_reason
        == parallel_err.value.report.abort_reason
    )
    assert serial_err.value.report.outcomes == parallel_err.value.report.outcomes


def test_byzantine_round_falls_back_to_serial():
    """A malicious participant disqualifies the round; reports are identical."""

    def build_with_attacker(workers=0, shards=1):
        parallelism = (
            ScaleConfig(workers=workers, shards=shards) if workers else None
        )
        deployment = Deployment.build(
            num_users=8,
            seed=b"scale-parity",
            parallelism=parallelism,
            provision_clients=False,
        )
        attacker_id = deployment.corpus.users[2].user_id
        for user in deployment.corpus.users:
            deployment.make_client(user.user_id, malicious=user.user_id == attacker_id)
        return deployment

    serial = _run(build_with_attacker())
    routed = build_with_attacker(workers=2, shards=3)
    assert route_of(routed).reason == "non_stock_party"
    parallel = _run(routed)
    _assert_identical_reports(serial, parallel)


def test_chaos_round_falls_back_to_serial():
    """Any fault injector disqualifies the round; reports are identical."""

    def run_with_faults(deployment):
        users = [u.user_id for u in deployment.corpus.users]
        plan = FaultPlan.sample(
            HmacDrbg(b"scale-chaos", personalization="plan"),
            0.1,
            clients=users,
            rounds=(1,),
            label="scale-chaos",
        )
        deployment.enable_faults(FaultInjector(plan, seed=b"scale-chaos"))
        if deployment.engine.parallelism is not None:
            assert route_of(deployment).reason == "fault_injector"
        try:
            return _run(deployment, recovery_threshold=0.25)
        except RoundAbortedError as err:
            return err.report

    serial = run_with_faults(_build())
    parallel = run_with_faults(_build(workers=2, shards=3))
    if serial.aggregate is None:
        assert parallel.aggregate is None
        assert serial.abort_reason == parallel.abort_reason
        assert serial.outcomes == parallel.outcomes
    else:
        _assert_identical_reports(serial, parallel)


def test_quarantined_participant_parity():
    """A quarantined offender sits out identically on both paths."""

    def run_with_quarantine(deployment):
        from repro.runtime.messages import client_endpoint
        from repro.runtime.protocol import VIOLATION_FLOODING

        target = deployment.corpus.users[3].user_id
        deployment.engine.monitor.record(0, client_endpoint(target), VIOLATION_FLOODING, "test")
        for violation in deployment.engine.monitor.violations_for(0):
            deployment.engine.quarantine.block(violation)
        return _run(deployment)

    serial = run_with_quarantine(_build())
    parallel = run_with_quarantine(_build(workers=2, shards=2))
    _assert_bit_exact(serial, parallel)
    quarantined_user = serial.participants[3]
    assert serial.outcomes[quarantined_user] == "quarantined"


# ------------------------------------------------------- the one device step
#
# The rules below live once, in ``repro.runtime.endpoints``; the pool
# worker and the parent's merge call the same functions the bus handler
# does, so both paths must book them identically — ecalls and enclave
# cycles included (``_assert_bit_exact``).


def test_out_of_range_vector_is_validation_rejected_on_both_paths():
    """The 538 attack through ``values_by_user``: a stock device's Glimmer
    refuses to sign it, the ecall is charged anyway, the slot is repaired."""

    def run_poisoned(deployment):
        vectors = dict(deployment.local_vectors())
        attacker = deployment.corpus.users[2].user_id
        vectors[attacker] = [538.0] + [0.0] * (len(deployment.features) - 1)
        return attacker, _run(deployment, vectors=vectors)

    attacker, serial = run_poisoned(_build())
    _, parallel = run_poisoned(_build(workers=2, shards=2))
    _assert_bit_exact(serial, parallel)
    assert parallel.outcomes[attacker] == OUTCOME_VALIDATION_REJECTED
    assert parallel.validation_rejections == 1
    assert parallel.masks_repaired == 1
    assert parallel.num_contributions == len(parallel.participants) - 1


def test_collect_dropout_and_provision_only_task_share_a_chunk():
    """One shard, one chunk: tasks that only provision (collect dropouts)
    ride beside tasks that also sign, and a silent dropout gets no task."""
    users = [u.user_id for u in _build().corpus.users]
    kwargs = dict(dropouts=(users[0],), collect_dropouts=(users[3], users[5]))
    serial = _run(_build(), **kwargs)
    parallel = _run(_build(workers=2, shards=1, chunk_size=32), **kwargs)
    _assert_bit_exact(serial, parallel)
    assert parallel.masks_repaired == 3
    assert [parallel.outcomes[u] for u in (users[0], users[3], users[5])] == [
        OUTCOME_DROPOUT
    ] * 3


def test_glimmer_down_at_round_start_is_restarted_on_the_pool_as_on_the_bus():
    """A device whose Glimmer is down when the round reaches it is
    restarted from sealed state and counted — the provision-time
    recover-and-retry the bus path has, not a raw ``EnclaveError``."""

    def run_with_a_dead_glimmer(deployment):
        victim = deployment.corpus.users[2].user_id
        deployment.clients[victim].crash()
        return _run(deployment)

    serial = run_with_a_dead_glimmer(_build(num_users=6))
    parallel = run_with_a_dead_glimmer(_build(workers=2, shards=2, num_users=6))
    # The slot is recovered over the bus, so the blinder draws it a second
    # delivery leg: same mask, other ciphertext bytes — the copy cost of
    # that one delivery is all that may differ from the serial twin.
    _assert_bit_exact(serial, parallel, copy_cycles=False)
    assert serial.client_restarts == parallel.client_restarts == 1
    assert parallel.num_contributions == 6
    assert set(parallel.outcomes.values()) == {OUTCOME_ACCEPTED}
    # Only the restarted slot went over the bus.
    assert parallel.messages_sent < serial.messages_sent


# ------------------------------------------------------ pool x mask sessions


def test_resumed_rounds_run_on_the_pool_and_match_serial():
    """The parent draws each slot's leg (in session, or a fresh keypair)
    through the provisioner, so the round that opens the sessions and the
    rounds that ride them are the serial twin's, byte for byte."""
    serial = _build()
    parallel = _build(workers=2, shards=2)
    plan = route_of(parallel)
    assert plan.shards > 0 and plan.reason is None
    for round_id in (1, 2, 3):
        serial_report = _run(serial, round_id)
        parallel_report = _run(parallel, round_id)
        _assert_bit_exact(serial_report, parallel_report)
        assert parallel_report.messages_sent < serial_report.messages_sent
        assert (
            serial_report.handshakes_resumed == parallel_report.handshakes_resumed
        )
    assert parallel_report.handshakes_resumed == len(parallel.clients)
    assert (
        serial.blinder_provisioner.sessions.counters()
        == parallel.blinder_provisioner.sessions.counters()
    )


def test_pool_round_heals_a_glimmer_restarted_between_resumed_rounds():
    """The restarted Glimmer cannot open its in-session delivery in the
    worker; that one slot re-attests on the bus, and the round still
    counts everyone, exactly."""
    deployment = _build(workers=2, shards=2)
    users = [u.user_id for u in deployment.corpus.users]
    _run(deployment, 1)
    victim = users[3]
    deployment.clients[victim].restart()
    sessions = deployment.blinder_provisioner.sessions
    full = sessions.full_verifications
    assert route_of(deployment).pool
    report = _run(deployment, 2)
    assert sessions.full_verifications == full + 1
    assert report.outcomes == {user: OUTCOME_ACCEPTED for user in users}
    assert report.num_contributions == len(users)
    np.testing.assert_array_equal(
        np.asarray(report.aggregate),
        exact_mean(deployment.codec, deployment.local_vectors(), users),
    )
    # the victim re-established on the bus; round 3 resumes for everyone
    assert _run(deployment, 3).handshakes_resumed == len(users)

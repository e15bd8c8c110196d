"""Deterministic link weather: plan sampling and on-wire execution.

The replayability contract is the load-bearing one — the fleet chaos
suite trusts that ``(seed, index, profile)`` pins every drop, delay,
duplicate, and perturbation.  These tests pin that contract directly,
plus the adversary-composition regression (satellite: DropAdversary and
ReplayAdversary draw from *injected* DRBGs, so a composed chain replays
identically under the same seeds).
"""

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.crypto.dh import TEST_GROUP
from repro.crypto.schnorr import SchnorrSignature
from repro.core.signing import SignedContribution
from repro.errors import ProtocolViolation
from repro.network.adversary import DropAdversary, ReplayAdversary
from repro.network.clock import SimulatedClock
from repro.network.conditions import (
    CELLULAR_EDGE,
    Episode,
    FleetPlan,
    HOSTILE,
    LinkConditions,
    LinkSchedule,
    PROFILES,
    URBAN_WIFI,
    resolve_profile,
    sample_fleet_plan,
)
from repro.network.message import Message
from repro.perf import kernels
from repro.runtime import messages as m
from repro.runtime.protocol import VIOLATION_MALFORMED
from repro.runtime.wire import validate_contribution
from repro.service.fleet import run_fleet_schedule
from tests.runtime.test_wire import _read_at_the_service


CLIENTS = ["alice", "bob", "carol", "dave", "erin", "frank"]


class _FakeNetwork:
    """Just the redelivery queue surface the adversaries need."""

    def __init__(self) -> None:
        self.enqueued: list[Message] = []

    def enqueue_redelivery(self, message: Message) -> None:
        self.enqueued.append(message)


def _message(
    sender: str,
    kind: str = m.KIND_CONTRIBUTE,
    payload=0,
    message_id: int = 1,
    sent_at_ms: float = 0.0,
) -> Message:
    return Message(
        sender=sender,
        receiver="engine",
        kind=kind,
        payload=payload,
        message_id=message_id,
        sent_at_ms=sent_at_ms,
        attempt=1,
    )


def _quiet_schedule(client_id: str, **overrides) -> LinkSchedule:
    """A schedule that does nothing unless a field says otherwise."""
    fields = dict(
        client_id=client_id,
        extra_latency_ms=0.0,
        jitter_ms=0.0,
        spike_rate=0.0,
        spike_ms=(0.0, 0.0),
        burst_start_rate=0.0,
        burst_length=(1, 1),
        duplicate_rate=0.0,
        partitions=(),
        disconnects=(),
        clock_skew_ms=0.0,
        firmware_skew=False,
        firmware_perturb_rate=0.0,
    )
    fields.update(overrides)
    return LinkSchedule(**fields)


def _plan_of(*schedules: LinkSchedule) -> FleetPlan:
    return FleetPlan(
        profile="test",
        label="test",
        horizon_ms=8000.0,
        links={s.client_id: s for s in schedules},
        epoch_bumps=(),
    )


# ------------------------------------------------------------- plan sampling


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_same_coordinates_same_plan(profile):
    a = sample_fleet_plan(b"seed", 3, profile, CLIENTS)
    b = sample_fleet_plan(b"seed", 3, profile, CLIENTS)
    assert a.describe() == b.describe()


def test_plan_stable_under_cohort_reordering():
    a = sample_fleet_plan(b"seed", 0, HOSTILE, CLIENTS)
    b = sample_fleet_plan(b"seed", 0, HOSTILE, list(reversed(CLIENTS)))
    assert a.describe() == b.describe()


def test_distinct_coordinates_distinct_plans():
    base = sample_fleet_plan(b"seed", 0, HOSTILE, CLIENTS).describe()
    assert sample_fleet_plan(b"seed", 1, HOSTILE, CLIENTS).describe() != base
    assert sample_fleet_plan(b"other", 0, HOSTILE, CLIENTS).describe() != base
    assert (
        sample_fleet_plan(b"seed", 0, URBAN_WIFI, CLIENTS).describe() != base
    )


@pytest.mark.parametrize("index", range(20))
def test_firmware_skew_capped_at_a_third(index):
    plan = sample_fleet_plan(b"cap", index, HOSTILE, CLIENTS)
    skewed = sum(link.firmware_skew for link in plan.links.values())
    assert skewed <= max(1, len(CLIENTS) // 3)


def test_resolve_profile_accepts_names_and_objects():
    assert resolve_profile("cellular-edge") is CELLULAR_EDGE
    assert resolve_profile(HOSTILE) is HOSTILE
    with pytest.raises(ValueError, match="unknown condition profile"):
        resolve_profile("desert-microwave")


def test_episode_windows_are_half_open():
    episode = Episode(start_ms=100.0, end_ms=200.0)
    schedule = _quiet_schedule("alice", partitions=(episode,))
    assert not schedule.offline_at(99.9)
    assert schedule.offline_at(100.0)
    assert schedule.partitioned_at(150.0)
    assert not schedule.offline_at(200.0)
    assert not schedule.disconnected_at(150.0)


# ----------------------------------------------------------- wire execution


def test_offline_window_drops_and_oracle_agrees():
    schedule = _quiet_schedule(
        "alice", partitions=(Episode(start_ms=0.0, end_ms=500.0),)
    )
    clock = SimulatedClock()
    conditions = LinkConditions(_plan_of(schedule), clock, HmacDrbg(b"t"))
    assert conditions.offline_for("alice")
    assert conditions.process(_message("client:alice")) is None
    assert conditions.counters()["offline_drops"] == 1
    clock.advance(600.0)
    assert not conditions.offline_for("alice")
    assert conditions.process(_message("client:alice")) is not None


def test_non_client_legs_pass_untouched():
    schedule = _quiet_schedule(
        "alice", partitions=(Episode(start_ms=0.0, end_ms=500.0),)
    )
    conditions = LinkConditions(
        _plan_of(schedule), SimulatedClock(), HmacDrbg(b"t")
    )
    message = Message(
        sender="engine",
        receiver="service",
        kind=m.KIND_SUBMIT,
        payload=7,
        message_id=1,
        sent_at_ms=0.0,
        attempt=1,
    )
    assert conditions.process(message) is message


def test_calm_ends_the_storm():
    schedule = _quiet_schedule(
        "alice",
        partitions=(Episode(start_ms=0.0, end_ms=500.0),),
        duplicate_rate=1.0,
    )
    conditions = LinkConditions(
        _plan_of(schedule), SimulatedClock(), HmacDrbg(b"t")
    )
    conditions.calm()
    message = _message("client:alice")
    assert conditions.process(message) is message
    assert not conditions.offline_for("alice")
    assert conditions.counters()["offline_drops"] == 0


def test_duplicates_queue_with_incremented_attempt():
    schedule = _quiet_schedule("alice", duplicate_rate=1.0)
    network = _FakeNetwork()
    conditions = LinkConditions(
        _plan_of(schedule), SimulatedClock(), HmacDrbg(b"t")
    )
    conditions.attach(network)
    original = _message("client:alice")
    assert conditions.process(original) is not None
    assert len(network.enqueued) == 1
    copy = network.enqueued[0]
    assert copy.attempt == original.attempt + 1
    assert copy.message_id == original.message_id
    assert conditions.duplicates == 1
    # Reply legs are never duplicated: a response is not a logical send.
    reply = _message("client:alice", kind=m.KIND_CONTRIBUTE + "/reply")
    conditions.process(reply)
    assert len(network.enqueued) == 1


def test_latency_spikes_advance_the_clock():
    schedule = _quiet_schedule(
        "alice", extra_latency_ms=25.0, spike_rate=1.0, spike_ms=(100.0, 100.0)
    )
    clock = SimulatedClock()
    conditions = LinkConditions(_plan_of(schedule), clock, HmacDrbg(b"t"))
    conditions.process(_message("client:alice"))
    assert clock.now_ms() == pytest.approx(125.0)
    assert conditions.spikes == 1
    assert conditions.counters()["delay_injected_ms"] == pytest.approx(125.0)


def test_clock_skew_applies_to_client_sent_traffic_only():
    schedule = _quiet_schedule("alice", clock_skew_ms=300.0)
    conditions = LinkConditions(
        _plan_of(schedule), SimulatedClock(), HmacDrbg(b"t")
    )
    outbound = conditions.process(_message("client:alice", sent_at_ms=100.0))
    assert outbound.sent_at_ms == pytest.approx(400.0)
    inbound = Message(
        sender="engine",
        receiver="client:alice",
        kind=m.KIND_PROVISION_MASK,
        payload=0,
        message_id=2,
        sent_at_ms=100.0,
        attempt=1,
    )
    assert conditions.process(inbound).sent_at_ms == pytest.approx(100.0)
    assert conditions.skewed_clock == 1


# ------------------------------------------ firmware skew → wire rejection


def _signed(ring=(1, 2, 3), nonce=b"\x07" * 16, confidence=0.5):
    return SignedContribution(
        round_id=1,
        nonce=nonce,
        blinded=True,
        ring_payload=kernels.be_words_to_bytes(ring),
        plain_payload=None,
        confidence=confidence,
        signature=SchnorrSignature(challenge=1, response=1, group=TEST_GROUP),
    )


def test_every_firmware_perturbation_violates_the_wire_schema():
    """Zero undetected corruption, at the unit level.

    Whatever mutation the skewed firmware draws, the result must be
    refused at the service's wire — by the declared checks
    (:func:`repro.runtime.wire.validate_payload`), or, for torn ring words,
    by their spelling at the round's width where the service admits them
    — and that rejection is what turns corruption into attributable
    Byzantine evidence instead of silent aggregate poison.
    """
    schedule = _quiet_schedule(
        "alice", firmware_skew=True, firmware_perturb_rate=1.0
    )
    conditions = LinkConditions(
        _plan_of(schedule), SimulatedClock(), HmacDrbg(b"perturb")
    )
    healthy = _signed()
    validate_contribution("client:alice", 1, healthy)  # sanity: passes clean
    mutations_seen = set()
    for message_id in range(24):
        submit = m.SubmitContribution(contribution=_signed())
        message = Message(
            sender="client:alice",
            receiver="service",
            kind=m.KIND_SUBMIT,
            payload=submit,
            message_id=message_id,
            sent_at_ms=0.0,
            attempt=1,
        )
        processed = conditions.process(message)
        mutated = processed.payload.contribution
        if mutated == healthy:
            continue  # this draw did not perturb a mutable field
        mutations_seen.add(
            (
                len(mutated.nonce) != 16,
                mutated.ring_payload != healthy.ring_payload,
                mutated.confidence != healthy.confidence,
            )
        )
        with pytest.raises(ProtocolViolation):
            _read_at_the_service(
                m.KIND_SUBMIT, m.SubmitContribution(contribution=mutated), sender="client:alice"
            )
    assert conditions.perturbed_submissions >= len(mutations_seen) >= 2
    assert conditions.process(
        _message("client:alice", kind=m.KIND_CONTRIBUTE)
    )  # non-submit kinds are never perturbed


def test_each_firmware_mutation_is_malformed_at_the_wire():
    """All three mutations — a 17-byte nonce, a torn final ring word, a NaN
    confidence — are refused at the service's wire as ``malformed``,
    blamed on the sending device: the nonce and the confidence by the
    submit schema, the torn word by its spelling at the round's width
    where the service admits it.  The ring mutation no longer writes the
    word ``2**64`` (a packed payload cannot hold it): it drops the last
    byte."""
    schedule = _quiet_schedule(
        "alice", firmware_skew=True, firmware_perturb_rate=1.0
    )
    conditions = LinkConditions(
        _plan_of(schedule), SimulatedClock(), HmacDrbg(b"perturb")
    )
    healthy = _signed()
    seen = set()
    for message_id in range(24):
        message = Message(
            sender="client:alice",
            receiver="service",
            kind=m.KIND_SUBMIT,
            payload=m.SubmitContribution(contribution=healthy),
            message_id=message_id,
            sent_at_ms=0.0,
            attempt=1,
        )
        mutated = conditions.process(message).payload.contribution
        if mutated.nonce != healthy.nonce:
            seen.add("nonce")
        elif mutated.ring_payload != healthy.ring_payload:
            assert len(mutated.ring_payload) == len(healthy.ring_payload) - 1
            seen.add("ring")
        elif mutated.confidence != healthy.confidence:
            seen.add("confidence")
        else:
            continue
        with pytest.raises(ProtocolViolation) as excinfo:
            _read_at_the_service(
                m.KIND_SUBMIT, m.SubmitContribution(contribution=mutated), sender="client:alice"
            )
        assert excinfo.value.kind == VIOLATION_MALFORMED
        assert excinfo.value.offender == "client:alice"
    assert seen == {"nonce", "ring", "confidence"}


@pytest.mark.parametrize("index", [0, 3])
def test_fleet_quarantine_is_attributed_to_firmware_skew(index):
    """End to end on the hostile profile: perturbed submissions end in a
    quarantine, and the harness's own check — every quarantined device
    runs skewed firmware, every round exact — holds."""
    report = run_fleet_schedule(seed=b"fleet-a", index=index, profile=HOSTILE)
    assert report["perturbed_submissions"] > 0
    assert report["quarantined"]


# -------------------------------------------------- composition regression


def _composed_chain(seed: bytes):
    clock = SimulatedClock()
    plan = sample_fleet_plan(seed, 0, HOSTILE, CLIENTS[:3])
    network = _FakeNetwork()
    conditions = LinkConditions(
        plan, clock, HmacDrbg(seed, personalization="conditions")
    )
    conditions.attach(network)
    drop = DropAdversary(
        drop_rate=0.2, rng=HmacDrbg(seed, personalization="drop")
    )
    replay = ReplayAdversary(
        target_kinds={m.KIND_CONTRIBUTE},
        rng=HmacDrbg(seed, personalization="replay"),
        replay_rate=0.3,
    )
    replay.attach(network)
    return clock, network, (conditions, drop, replay)


def _drive(seed: bytes):
    """Push a fixed message sequence through the composed chain."""
    clock, network, chain = _composed_chain(seed)
    conditions, drop, replay = chain
    trace = []
    for i in range(120):
        client = CLIENTS[i % 3]
        message = _message(
            f"client:{client}",
            payload=i,
            message_id=i,
            sent_at_ms=clock.now_ms(),
        )
        current = message
        for adversary in chain:
            if current is None:
                break
            current = adversary.process(current)
        trace.append(
            None
            if current is None
            else (current.message_id, current.attempt, current.sent_at_ms)
        )
    enqueued = [(q.message_id, q.attempt) for q in network.enqueued]
    counters = dict(conditions.counters())
    counters["ambient_dropped"] = drop.dropped
    counters["auto_replayed"] = replay.auto_replayed
    return trace, enqueued, counters


def test_same_seed_composition_replays_identically():
    """Satellite regression: the full adversary *composition* is a pure
    function of the injected seeds — traces, redelivery queues, and
    every counter match across two independent runs."""
    assert _drive(b"compose") == _drive(b"compose")


def test_distinct_seed_composition_diverges():
    base = _drive(b"compose")
    other = _drive(b"esopmoc")
    assert base != other

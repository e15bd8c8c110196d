"""The published feature list travels to each device host once.

``ContributeCommand`` carries the list, packed into one NUL-joined blob
and deflated, together with its 32-byte digest, only to a device whose
last bus contribution under that digest was not accepted (or that never
made one); a steady command carries neither.  These tests watch
the wire with an eavesdropper and hold every round to the exact mean: the
list goes out in round 1 and not after, a new host or a refused round gets
it again, a list stripped or swapped in transit costs that device one
round and nothing more, and a device first seen by the worker pool gets it
on its first bus round.  The blob's own tests pin its first-trip size,
its round trip through the bus form, what the wire and the Glimmer
refuse, the streams that do not inflate within the cap, that every host
shares one inflated blob, that same-seed runs send the same bytes, and
that the engine packs a list once a round.
"""

from __future__ import annotations

import hashlib
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import codec
from repro.core import glimmer
from repro.core.glimmer import (
    deflate_features,
    features_digest,
    inflate_features,
    pack_features,
    unpack_features,
)
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashing import hash_items
from repro.errors import ProtocolError, ProtocolViolation, ValidationError
from repro.experiments.common import Deployment
from repro.federated.model import FeatureSpace
from repro.invariants import exact_mean, judge
from repro.network.adversary import EavesdropAdversary
from repro.runtime import messages as m
from repro.runtime.protocol import VIOLATION_MALFORMED
from repro.runtime.telemetry import (
    OUTCOME_ACCEPTED,
    OUTCOME_UNREACHABLE,
    OUTCOME_VALIDATION_REJECTED,
)
from repro.runtime.wire import validate_payload
from repro.scale import ScaleConfig
from repro.workloads.text import KeyboardCorpus
from tests.runtime.test_wire import RewriteContribute

USERS = 6
SEED = b"feature-publication"


def _build(**kwargs):
    deployment = Deployment.build(
        num_users=USERS, seed=SEED, sentences_per_user=8, **kwargs
    )
    users = [user.user_id for user in deployment.corpus.users]
    return deployment, users


def _commands(eavesdropper, round_id) -> dict[str, m.ContributeCommand]:
    """The command each device was sent in a round (last attempt wins)."""
    return {
        message.receiver.removeprefix("client:"): message.payload
        for message in eavesdropper.captured
        if message.kind == m.KIND_CONTRIBUTE and message.payload.round_id == round_id
    }


def _run(deployment, round_id, users, vectors=None, **kwargs):
    vectors = vectors or deployment.local_vectors()
    report = deployment.engine.run_round(
        round_id, users, vectors, deployment.features.bigrams, **kwargs
    )
    assert judge(report, deployment.codec, vectors).exact
    assert np.array_equal(
        report.aggregate, exact_mean(deployment.codec, vectors, report.survivors)
    )
    return report


def test_the_list_travels_in_round_one_only():
    deployment, users = _build()
    eavesdropper = EavesdropAdversary()
    deployment.network.interpose(eavesdropper)
    bigrams = tuple(deployment.features.bigrams)
    digest = features_digest(bigrams)
    stream = deflate_features(bigrams)
    reports = [_run(deployment, round_id, users) for round_id in (1, 2, 3)]

    for round_id, report in enumerate(reports, start=1):
        commands = _commands(eavesdropper, round_id)
        assert sorted(commands) == sorted(users)
        assert set(report.outcomes.values()) == {OUTCOME_ACCEPTED}
        for command in commands.values():
            assert command.features_digest == (digest if round_id == 1 else None)
            assert command.features == (stream if round_id == 1 else None)
    assert reports[1].bytes_on_wire < reports[0].bytes_on_wire
    assert reports[2].bytes_on_wire < reports[0].bytes_on_wire


def test_a_reregistered_device_gets_the_list_again():
    deployment, users = _build()
    eavesdropper = EavesdropAdversary()
    deployment.network.interpose(eavesdropper)
    _run(deployment, 1, users)
    renewed = users[2]
    deployment.engine.register_client(deployment.clients[renewed])
    report = _run(deployment, 2, users)

    commands = _commands(eavesdropper, 2)
    assert commands[renewed].features == deflate_features(deployment.features.bigrams)
    assert all(commands[u].features is None for u in users if u != renewed)
    assert report.outcomes[renewed] == OUTCOME_ACCEPTED


def test_a_refused_device_gets_the_list_again_and_is_accepted():
    deployment, users = _build()
    eavesdropper = EavesdropAdversary()
    deployment.network.interpose(eavesdropper)
    poisoned = dict(deployment.local_vectors())
    refused = users[3]
    poisoned[refused] = [538.0] + [0.0] * (len(deployment.features) - 1)
    first = _run(deployment, 1, users, poisoned)
    assert first.outcomes[refused] == OUTCOME_VALIDATION_REJECTED

    second = _run(deployment, 2, users)
    commands = _commands(eavesdropper, 2)
    assert commands[refused].features == deflate_features(deployment.features.bigrams)
    assert all(commands[u].features is None for u in users if u != refused)
    assert set(second.outcomes.values()) == {OUTCOME_ACCEPTED}


def test_a_list_stripped_in_transit_costs_that_device_one_round():
    deployment, users = _build()
    victim = users[1]
    eavesdropper = EavesdropAdversary()
    deployment.network.interpose(
        RewriteContribute(victim, {1}, features=None, features_digest=None)
    )
    deployment.network.interpose(eavesdropper)
    bigrams = tuple(deployment.features.bigrams)

    first = _run(deployment, 1, users)
    assert first.outcomes[victim] == OUTCOME_VALIDATION_REJECTED
    assert len(first.survivors) == USERS - 1
    second = _run(deployment, 2, users)
    assert _commands(eavesdropper, 2)[victim].features == deflate_features(bigrams)
    assert second.outcomes[victim] == OUTCOME_ACCEPTED
    third = _run(deployment, 3, users)
    assert _commands(eavesdropper, 3)[victim].features is None
    assert set(third.outcomes.values()) == {OUTCOME_ACCEPTED}


def test_a_list_that_misses_its_digest_is_malformed_and_not_kept():
    deployment, users = _build()
    victim = users[4]
    bigrams = tuple(deployment.features.bigrams)
    _run(deployment, 1, users)
    swapped = tuple(reversed(bigrams))
    deployment.network.interpose(
        RewriteContribute(
            victim, {2},
            features=deflate_features(swapped), features_digest=features_digest(bigrams),
        )
    )

    second = _run(deployment, 2, users)
    assert [(v.offender, v.kind) for v in second.violations] == [
        (m.ENGINE, VIOLATION_MALFORMED)
    ]
    assert second.outcomes[victim] == OUTCOME_UNREACHABLE
    assert second.masks_repaired == 1
    endpoint = deployment.engine.client_endpoints[victim]
    assert endpoint._features == pack_features(bigrams)

    deployment.network.clear_adversaries()
    third = _run(deployment, 3, users)
    assert set(third.outcomes.values()) == {OUTCOME_ACCEPTED}


def test_a_pool_only_device_gets_the_list_on_its_first_bus_round():
    deployment, users = _build(parallelism=ScaleConfig(workers=2, shards=2))
    bigrams = tuple(deployment.features.bigrams)
    with deployment.engine:
        pooled = _run(deployment, 1, users)
        assert pooled.route_reason is None
        eavesdropper = EavesdropAdversary()
        deployment.network.interpose(eavesdropper)
        serial = _run(deployment, 2, users)
        assert serial.route_reason == "network_adversary"
        stream = deflate_features(bigrams)
        assert all(c.features == stream for c in _commands(eavesdropper, 2).values())
        assert set(serial.outcomes.values()) == {OUTCOME_ACCEPTED}
        _run(deployment, 3, users)
        assert all(c.features is None for c in _commands(eavesdropper, 3).values())


# ------------------------------------------------------------ the packed blob

WIDE = tuple((f"feature-{i:04d}", "value") for i in range(4096))
WORD = st.text(st.characters(exclude_characters="\x00", exclude_categories=("Cs",)))


def _keyboard_list() -> tuple:
    """The k = 77 list of the 192-device keyboard cohort the benchmark runs."""
    rng = HmacDrbg(b"roundbench/11/narrow", personalization="deployment")
    corpus = KeyboardCorpus.generate(192, rng.fork("corpus"), sentences_per_user=30)
    return tuple(FeatureSpace.from_corpus(corpus.all_sentences()).bigrams)


@pytest.mark.parametrize(
    "features, cap",
    [pytest.param(_keyboard_list, 380, id="k77"), pytest.param(lambda: WIDE, 10_000, id="k4096")],
)
def test_a_first_trip_frame_is_packed(features, cap):
    """The list crosses packed and deflated: 360 and 9,686 bytes (828 and
    77,867 packed alone); a later trip carries neither the list nor its
    digest, 8 bytes (46 while it named the digest under a u64 round id)."""
    bigrams = features()
    digest = features_digest(bigrams)
    first = m.ContributeCommand(1, deflate_features(bigrams), digest)
    assert len(codec.encode(first)) <= cap
    assert len(codec.encode(m.ContributeCommand(1))) == 8


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(WORD, WORD), max_size=20).map(tuple))
def test_a_packed_list_unpacks_to_itself_under_its_digest(bigrams):
    unpacked = unpack_features(pack_features(bigrams))
    assert unpacked == bigrams
    assert features_digest(unpacked) == features_digest(bigrams)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(WORD, WORD), max_size=20).map(tuple))
def test_a_list_survives_its_bus_form(bigrams):
    unpacked = unpack_features(inflate_features(deflate_features(bigrams)))
    assert unpacked == bigrams
    assert features_digest(unpacked) == features_digest(bigrams)


def test_the_digest_format_is_unchanged():
    bigrams = (("the", "cat"), ("cat", "sat"))
    assert features_digest(bigrams) == hash_items(
        "feature-space", [b"the\x00cat", b"cat\x00sat"]
    )
    assert pack_features(bigrams) == b"the\x00cat\x00cat\x00sat"
    assert pack_features(()) == b""
    assert unpack_features(b"") == ()


@pytest.mark.parametrize("bigrams", [(("a\x00b", "c"),), (("a", "b\x00c"),)])
def test_a_word_holding_nul_is_refused(bigrams):
    """Both lists hash ``a NUL b NUL c``: one could stand in for the other
    under a vetted digest, so neither gets a digest or a blob."""
    with pytest.raises(ValidationError):
        features_digest(bigrams)
    with pytest.raises(ValidationError):
        pack_features(bigrams)


def _deflated(blob: bytes) -> bytes:
    """Any blob in the bus form, as a sender could deflate it."""
    deflater = zlib.compressobj(9, zlib.DEFLATED, -15)
    return deflater.compress(blob) + deflater.flush()


BAD_BLOBS = [
    pytest.param(b"the\x00cat\x00sat", "odd number of words", id="odd-word-count"),
    pytest.param(b"the\x00\xffcat", "not UTF-8", id="bad-utf8"),
    pytest.param(
        pack_features((("cat", "sat"), ("the", "cat"))), "do not hash", id="digest-mismatch"
    ),
]


@pytest.mark.parametrize("blob, complaint", BAD_BLOBS)
def test_a_bad_blob_is_malformed_at_the_wire(blob, complaint):
    digest = features_digest((("the", "cat"), ("cat", "sat")))
    command = m.ContributeCommand(1, _deflated(blob), digest)
    with pytest.raises(ProtocolViolation, match=complaint) as excinfo:
        validate_payload(m.KIND_CONTRIBUTE, "engine", command)
    assert excinfo.value.kind == VIOLATION_MALFORMED
    assert excinfo.value.offender == "engine"


@pytest.mark.parametrize("blob, complaint", BAD_BLOBS[:2])
def test_a_blob_that_does_not_unpack_is_malformed_and_not_kept(blob, complaint):
    deployment, users = _build()
    victim = users[4]
    bigrams = tuple(deployment.features.bigrams)
    _run(deployment, 1, users)
    deployment.network.interpose(RewriteContribute(
        victim, {2}, features=_deflated(blob), features_digest=features_digest(bigrams)
    ))

    second = _run(deployment, 2, users)
    assert [(v.offender, v.kind) for v in second.violations] == [
        (m.ENGINE, VIOLATION_MALFORMED)
    ]
    assert complaint in second.violations[0].detail
    assert second.outcomes[victim] == OUTCOME_UNREACHABLE
    assert deployment.engine.client_endpoints[victim]._features == pack_features(bigrams)


def _incompressible() -> bytes:
    """A packed list of 32 pairs of hex words: it deflates only ~2×."""
    return b"\x00".join(hashlib.sha256(bytes([i])).hexdigest().encode() for i in range(64))


def _repetitive() -> bytes:
    """A packed list of 5,000,000 ``("a", "a")`` pairs: 10 MB that deflate
    to ~10 KB."""
    return (b"a\x00" * 10_000_000)[:-1]


BAD_STREAMS = [
    pytest.param(lambda s: s[:-4], "stops short", None, id="truncated"),
    pytest.param(lambda s: s + b"\x00", "bytes after the end", None, id="trailing-bytes"),
    pytest.param(lambda s: b"\xff" * 16, "not a raw-deflate stream", None, id="not-deflate"),
    pytest.param(
        lambda s: _deflated(_incompressible()), "inflates past 1024 bytes", 1024, id="past-the-cap"
    ),
    pytest.param(lambda s: _deflated(_repetitive()), "inflates past", None, id="past-its-length"),
]


@pytest.mark.parametrize("damage, complaint, cap", BAD_STREAMS)
def test_a_stream_that_does_not_inflate_is_malformed_and_not_kept(
    monkeypatch, damage, complaint, cap
):
    """The host inflates at most the cap or 64 times the stream's length,
    whichever is less, and a stream that is cut short, runs on past its
    end, is not raw deflate or would inflate past either bound is one
    ``malformed`` violation on the sender; the host keeps its list."""
    deployment, users = _build()
    victim = users[4]
    bigrams = tuple(deployment.features.bigrams)
    _run(deployment, 1, users)
    stream = damage(deflate_features(bigrams))
    deployment.network.interpose(
        RewriteContribute(victim, {2}, features=stream, features_digest=features_digest(bigrams))
    )
    if cap is not None:
        monkeypatch.setattr(glimmer, "MAX_INFLATED_FEATURES", cap)

    second = _run(deployment, 2, users)
    assert [(v.offender, v.kind) for v in second.violations] == [
        (m.ENGINE, VIOLATION_MALFORMED)
    ]
    assert complaint in second.violations[0].detail
    assert second.outcomes[victim] == OUTCOME_UNREACHABLE
    assert deployment.engine.client_endpoints[victim]._features == pack_features(bigrams)


def test_a_bomb_is_inflated_no_further_than_the_cap(monkeypatch):
    """Refusing a 16 MB bomb under a 64 KB cap allocates about the cap, not
    the bomb: inflating stops one byte past it."""
    monkeypatch.setattr(glimmer, "MAX_INFLATED_FEATURES", 1 << 16)
    bomb = _deflated(bytes(16 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="inflates past 65536 bytes"):
            inflate_features(bomb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "stream, complaint",
    [
        pytest.param(lambda: _deflated(_repetitive()), "inflates past", id="repetitive"),
        pytest.param(lambda: deflate_features(WIDE), "do not hash", id="misses-its-digest"),
    ],
)
def test_a_refused_stream_costs_a_bound_set_by_its_length_and_is_kept_nowhere(
    stream, complaint
):
    """Checking a first trip at the wire costs the host memory bounded by
    the stream's own length, and a stream it refuses — inflating too far,
    or to a list that misses its digest — stays in neither memo."""
    stream = stream()
    command = m.ContributeCommand(1, stream, features_digest((("the", "cat"),)))
    memos = (glimmer.received_features, glimmer._published)
    for memo in memos:
        memo.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolViolation, match=complaint):
            validate_payload(m.KIND_CONTRIBUTE, "engine", command)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * glimmer.MAX_INFLATION * len(stream) + (1 << 20)
    assert [memo.cache_info().currsize for memo in memos] == [0, 0]
    assert glimmer.received_features.cache_info().misses == 1


def test_a_list_that_deflates_too_tightly_crosses_in_stored_blocks():
    """A list whose deflate would pass the inflation bound (4,096 pairs of
    empty words) still crosses, at about its packed length."""
    bigrams = (("", ""),) * 4096
    stream = deflate_features(bigrams)
    assert len(pack_features(bigrams)) <= len(stream) < len(pack_features(bigrams)) + 64
    assert unpack_features(inflate_features(stream)) == bigrams


def test_same_seed_runs_send_identical_first_trips():
    frames = []
    for __ in range(2):
        deployment, users = _build()
        eavesdropper = EavesdropAdversary()
        deployment.network.interpose(eavesdropper)
        _run(deployment, 1, users)
        commands = _commands(eavesdropper, 1)
        frames.append([codec.encode(commands[user]) for user in users])
    assert frames[0] == frames[1]
    assert all(len(frame) > 46 for frame in frames[0])


def test_every_host_keeps_one_shared_list():
    deployment, users = _build()
    _run(deployment, 1, users)
    kept = [deployment.engine.client_endpoints[u]._features for u in users]
    assert kept[0] == pack_features(deployment.features.bigrams)
    assert all(features is kept[0] for features in kept)


@pytest.mark.parametrize(
    "parallelism", [None, ScaleConfig(workers=2, shards=2)], ids=["bus", "pool"]
)
def test_the_engine_packs_and_digests_the_list_once_a_round(monkeypatch, parallelism):
    """A round works its list out once, not once per command or pool task
    (counted wherever the engine or the pool round could call them)."""
    from repro.runtime import engine as engine_module
    from repro.scale import rounds as rounds_module

    calls = {"deflate_features": 0, "features_digest": 0}
    for module in (engine_module, rounds_module):
        for name in calls:
            real = getattr(module, name, None)
            if real is None:
                continue

            def counted(features, _name=name, _real=real):
                calls[_name] += 1
                return _real(features)

            monkeypatch.setattr(module, name, counted)
    kwargs = {} if parallelism is None else {"parallelism": parallelism}
    deployment, users = _build(**kwargs)
    with deployment.engine:
        for round_id in (1, 2, 3):
            before = dict(calls)
            report = _run(deployment, round_id, users)
            assert set(report.outcomes.values()) == {OUTCOME_ACCEPTED}
            assert all(calls[name] - before[name] <= 1 for name in calls), calls


@pytest.mark.parametrize(
    "blob, complaint",
    BAD_BLOBS + [
        pytest.param((("the", "cat"), ("cat", "sat")), "must be bytes, not tuple", id="pairs"),
        pytest.param(b"", "do not hash", id="no-list"),
    ],
)
def test_the_glimmer_refuses_a_blob_it_cannot_hold_to_its_digest(blob, complaint):
    """In the enclave a feature list is a blob to check: one that is not
    bytes fails the request's declared checks (``ProtocolError``), one
    that does not unpack or misses the measured digest is a
    ``ValidationError``, and the Glimmer signs nothing."""
    deployment, users = _build()
    client = deployment.clients[users[0]]
    deployment.open_round(1, users)
    refusal = ValidationError if type(blob) is bytes else ProtocolError
    with pytest.raises(refusal, match=complaint):
        client.contribute(1, [0.5] * len(deployment.features), blob)
    assert client.glimmer.ecall("has_mask", 1, client.party_index_for(1))

"""Schema checks on whole vectors, and on every other field at the wire.

Numeric vectors travel packed: ``bytes`` of 8-byte big-endian values.
``_check_packed`` judges one by type and length alone, and
``_check_finite_floats`` adds one array pass for non-finite doubles.
These tests pin that boundary — including the old Python-sequence shape,
other buffer types, empty, torn and over-long buffers — plus every field
of the contribute command and of the mask request's two shapes, checked
at the wire so a rewrite in transit is a blamed violation end to end.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import codec, invariants
from repro.codec import Packed
from repro.core.glimmer import HANDLE_BYTES, deflate_features, features_digest
from repro.core.signing import SignedContribution
from repro.crypto.dh import OAKLEY_GROUP_1, TEST_GROUP
from repro.crypto.schnorr import SchnorrSignature
from repro.errors import ConfigurationError, ProtocolViolation, RoundAbortedError
from repro.experiments.common import Deployment
from repro.network.adversary import EavesdropAdversary, NetworkAdversary
from repro.perf import kernels
from repro.runtime import messages as m
from repro.runtime.protocol import VIOLATION_MALFORMED
from repro.runtime.telemetry import OUTCOME_QUARANTINED, OUTCOME_UNREACHABLE
from repro.runtime.wire import blamed, validate_contribution, validate_payload
from repro.scale import ScaleConfig
from repro.sgx.attestation import Quote

SENDER = "client:mallory"
HUGE = 10**400  # an int no float can hold


def _contribution(**overrides):
    fields = dict(
        round_id=1,
        nonce=b"\x07" * 16,
        blinded=True,
        ring_payload=kernels.be_words_to_bytes((1, 2, 3)),
        plain_payload=None,
        confidence=0.5,
        signature=SchnorrSignature(challenge=1, response=1, group=TEST_GROUP),
    )
    fields.update(overrides)
    return SignedContribution(**fields)


def _assert_blamed(excinfo):
    assert excinfo.value.offender == SENDER
    assert excinfo.value.kind == VIOLATION_MALFORMED


@pytest.mark.parametrize(
    "values",
    [(0.0,), (0.0, 1, -2.5, 10**300), (np.float64(0.25), 1.0), tuple([0.5] * 4096)],
)
def test_finite_floats_accepted(values):
    blamed(Packed(finite=True))(SENDER, 1, "values", kernels.be_doubles_to_bytes(values))


@pytest.mark.parametrize(
    "values",
    [
        [1.0, 2.0],
        (1.0, float("nan")),
        (float("inf"), 1.0),
        (1.0, True),
        (1.0, "2"),
        (1.0, None),
        (1.0, 1j),
        pytest.param((1.0, HUGE), id="too-large-for-a-float"),
        pytest.param((-HUGE,), id="too-small-for-a-float"),
    ],
)
def test_malformed_floats_are_blamed_on_the_sender(values):
    """A Python sequence is the old shape: refused whatever it holds."""
    with pytest.raises(ProtocolViolation) as excinfo:
        blamed(Packed(finite=True))(SENDER, 1, "values", values)
    _assert_blamed(excinfo)


@pytest.mark.parametrize("words", [(0,), (0, 1, (1 << 64) - 1), tuple(range(4096))])
def test_ring_words_accepted(words):
    blamed(Packed())(SENDER, 1, "ring_payload", kernels.be_words_to_bytes(words))


@pytest.mark.parametrize(
    "words",
    [[1, 2], (1, 2), bytearray(16), memoryview(bytes(16)), "\x00" * 16, None],
    ids=["list", "tuple", "bytearray", "memoryview", "str", "none"],
)
def test_ring_words_must_come_packed(words):
    with pytest.raises(ProtocolViolation) as excinfo:
        blamed(Packed())(SENDER, 1, "ring_payload", words)
    _assert_blamed(excinfo)
    assert "must be packed bytes" in str(excinfo.value)


@pytest.mark.parametrize(
    "stray",
    [-1, 1 << 64, pytest.param(HUGE, id="huge"), 2.0, True, np.uint64(2), "2"],
)
def test_malformed_ring_word_is_named_and_blamed_on_the_sender(stray):
    """A word outside the ring has no packed spelling; a sequence holding
    one is the old shape, refused with the field and the shape named."""
    for words in ((stray, 1), (1, stray, 3)):
        with pytest.raises(ProtocolViolation) as excinfo:
            blamed(Packed())(SENDER, 1, "ring_payload", words)
        _assert_blamed(excinfo)
        assert "ring_payload must be packed bytes, not tuple" in str(excinfo.value)


@pytest.mark.parametrize("confidence", [0, 1, 0.0, 1.0, 0.25])
def test_confidence_in_range_accepted(confidence):
    validate_contribution(SENDER, 1, _contribution(confidence=confidence))


@pytest.mark.parametrize(
    "confidence",
    [
        pytest.param(HUGE, id="too-large-for-a-float"),
        pytest.param(-HUGE, id="too-small-for-a-float"),
        2, -0.5, float("nan"), float("inf"), True, "0.5", None,
        # between two of the 1/10,000 quanta a signature covers
        0.99996, 0.12345, 1 / 3, 5e-5,
    ],
)
def test_confidence_out_of_range_is_blamed_on_the_sender(confidence):
    with pytest.raises(ProtocolViolation) as excinfo:
        validate_contribution(SENDER, 1, _contribution(confidence=confidence))
    _assert_blamed(excinfo)


def test_unrepresentable_plain_payload_is_a_violation_not_a_crash():
    forged = _contribution(
        blinded=False, ring_payload=None, plain_payload=(1.0, HUGE)
    )
    with pytest.raises(ProtocolViolation) as excinfo:
        validate_payload(
            m.KIND_SUBMIT, SENDER, m.SubmitContribution(contribution=forged)
        )
    _assert_blamed(excinfo)


# ------------------------------------------------------- the contribute command

BIGRAMS = (("the", "cat"), ("cat", "sat"))


def _command(**overrides):
    fields = dict(
        round_id=1,
        features=deflate_features(BIGRAMS),
        features_digest=features_digest(BIGRAMS),
    )
    fields.update(overrides)
    return m.ContributeCommand(**fields)


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        dict(features=None, features_digest=None),
        dict(round_id=codec.MAX_ROUND_ID, features=None, features_digest=None),
    ],
)
def test_contribute_command_accepted(overrides):
    validate_payload(m.KIND_CONTRIBUTE, SENDER, _command(**overrides))


@pytest.mark.parametrize(
    "overrides",
    [
        dict(features_digest=b"\x00" * 31),
        dict(features_digest=b"\x00" * 33),
        dict(features_digest="0" * 32),
        dict(features_digest=None),
        dict(features=None),
        dict(features=7),
        dict(features=list(BIGRAMS)),
        dict(features=(["the", "cat"],)),
        dict(features=(("a",),) * 3),
        dict(features=(("the", "cat", "sat"),)),
        dict(features=(("the", 1),)),
        pytest.param(dict(features=deflate_features(BIGRAMS[:1])), id="list-misses-its-digest"),
        pytest.param(dict(features=b""), id="features-empty"),
        pytest.param(
            dict(features=None, features_digest=None, round_id=-1), id="round-id-negative"
        ),
        pytest.param(
            dict(features=None, features_digest=None, round_id=codec.MAX_ROUND_ID + 1),
            id="round-id-past-u32",
        ),
    ],
)
def test_malformed_contribute_command_is_blamed_on_the_sender(overrides):
    with pytest.raises(ProtocolViolation) as excinfo:
        validate_payload(m.KIND_CONTRIBUTE, SENDER, _command(**overrides))
    _assert_blamed(excinfo)


class RewriteContribute(NetworkAdversary):
    """On-path: rewrite fields of the contribute commands to one device, in
    the rounds named (all rounds when ``rounds`` is ``None``)."""

    def __init__(self, user_id: str, rounds=None, **fields) -> None:
        self.receiver = m.client_endpoint(user_id)
        self.rounds = rounds
        self.fields = fields

    def process(self, message):
        if (
            message.kind == m.KIND_CONTRIBUTE
            and message.receiver == self.receiver
            and (self.rounds is None or message.payload.round_id in self.rounds)
        ):
            return message.with_payload(replace(message.payload, **self.fields))
        return message


@pytest.mark.parametrize(
    "fields",
    [
        pytest.param(dict(features=None), id="features-none"),
        pytest.param(dict(features=7), id="features-int"),
        pytest.param(dict(features=(("a",),) * 3), id="features-short-pairs"),
    ],
)
def test_tampered_contribute_command_is_a_violation_end_to_end(fields):
    """Each rewrite is refused at the device as one ``malformed`` violation
    recorded against the engine (as far as the device can tell, the
    sender), never a raw ``TypeError``/``ValueError``: like a refused
    provision command, it costs the victim the round — ``unreachable``,
    its slot repaired — and the round still finalizes exactly."""
    deployment = Deployment.build(num_users=4, seed=b"wire-tamper")
    victim = deployment.corpus.users[1].user_id
    deployment.network.interpose(RewriteContribute(victim, **fields))
    deployment.honest_round(1)
    report = deployment.last_report
    verdict = invariants.judge(report, deployment.codec, deployment.local_vectors())
    assert verdict.outcome == invariants.OUTCOME_EXACT
    assert [(v.offender, v.kind) for v in report.violations] == [
        (m.ENGINE, VIOLATION_MALFORMED)
    ]
    assert report.outcomes[victim] == OUTCOME_UNREACHABLE
    assert report.masks_repaired == 1


@pytest.mark.parametrize(
    "fields",
    [
        pytest.param(dict(round_id=2), id="round-id"),
        pytest.param(dict(features=b""), id="features-empty"),
        pytest.param(
            dict(features=deflate_features(BIGRAMS), features_digest=features_digest(BIGRAMS)),
            id="features-other",
        ),
        pytest.param(dict(features_digest=b"\x00" * 32), id="features-digest"),
    ],
)
def test_no_rewrite_of_the_contribute_command_unblinds_a_contribution(fields):
    """Privacy, whatever the command says: with a victim's command
    rewritten to any value its schema accepts, every contribution an
    on-path observer sees leave a host is blinded, never plaintext."""
    deployment = Deployment.build(num_users=4, seed=b"wire-tamper")
    victim = deployment.corpus.users[1].user_id
    eavesdropper = EavesdropAdversary()
    deployment.network.interpose(eavesdropper)
    deployment.network.interpose(RewriteContribute(victim, **fields))
    try:
        deployment.honest_round(1)
    except RoundAbortedError:
        pass  # what the round did is not the question; what crossed is
    submissions = eavesdropper.captured_payloads(m.KIND_SUBMIT)
    assert len({s.contribution.nonce for s in submissions}) >= 3
    for submission in submissions:
        assert submission.contribution.blinded
        assert submission.contribution.plain_payload is None


# ------------------------------------------------------------ the mask request

QUOTE = Quote(
    mrenclave=b"\x01" * 32,
    mrsigner=b"\x02" * 32,
    version=1,
    debug=False,
    report_data=b"\x03" * 64,
    platform_id=b"\x04" * 16,
    signature=SchnorrSignature(challenge=1, response=1, group=OAKLEY_GROUP_1),
)
HANDLE = b"\x05" * HANDLE_BYTES


def _mask_request(**overrides):
    fields = dict(
        session_id=b"user-0000\x00\x00\x00\x01",
        dh_public=4,
        quote=QUOTE,
        round_id=1,
        party_index=0,
    )
    fields.update(overrides)
    # A DH value travels in its group; a request without one names none.
    fields.setdefault("group", None if fields["dh_public"] is None else TEST_GROUP)
    return m.MaskRequest(**fields)


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({}, id="full"),
        pytest.param(dict(session_id=HANDLE, dh_public=None, quote=None), id="in-session"),
    ],
)
def test_mask_request_accepted(overrides):
    validate_payload(m.KIND_MASK_REQUEST, SENDER, _mask_request(**overrides))


@pytest.mark.parametrize(
    "overrides",
    [
        # the full shape, type-confused
        dict(quote="not-a-quote"),
        dict(quote=7),
        dict(quote=None),
        dict(quote=replace(QUOTE, platform_id=[4])),
        dict(quote=replace(QUOTE, version="1")),
        dict(quote=replace(QUOTE, debug=0)),
        dict(quote=replace(QUOTE, signature=(1, 1))),
        dict(quote=replace(QUOTE, signature=SchnorrSignature(challenge=1.0, response=1))),
        dict(dh_public=None),
        dict(dh_public=0),
        dict(dh_public=True),
        dict(session_id=b""),
        dict(session_id="user-0000"),
        # the in-session shape, with something of the other or a bad handle
        dict(session_id=HANDLE, dh_public=None, quote=QUOTE),
        dict(session_id=HANDLE, dh_public=5, quote=None),
        dict(session_id=HANDLE[:-1], dh_public=None, quote=None),
        dict(session_id=HANDLE + b"\x00", dh_public=None, quote=None),
        dict(session_id=None, dh_public=None, quote=None),
    ],
)
def test_malformed_mask_request_is_blamed_on_the_sender(overrides):
    with pytest.raises(ProtocolViolation) as excinfo:
        validate_payload(m.KIND_MASK_REQUEST, SENDER, _mask_request(**overrides))
    _assert_blamed(excinfo)


class RewriteMaskRequest(NetworkAdversary):
    """On-path: rewrite fields of one device's mask requests."""

    def __init__(self, user_id: str, **fields) -> None:
        self.sender = m.client_endpoint(user_id)
        self.fields = fields

    def process(self, message):
        if message.kind == m.KIND_MASK_REQUEST and message.sender == self.sender:
            return message.with_payload(replace(message.payload, **self.fields))
        return message


@pytest.mark.parametrize("quote", ["not-a-quote", None, 7], ids=["str", "none", "int"])
def test_type_confused_quote_ends_in_a_verdict(quote):
    """A rewritten quote is a ``malformed`` violation blamed on the device
    whose request carried it: the round finalizes exactly over the rest,
    with that device quarantined — never a raw ``AttributeError``."""
    deployment = Deployment.build(num_users=4, seed=b"wire-tamper")
    users = [user.user_id for user in deployment.corpus.users]
    victim = users[1]
    deployment.network.interpose(RewriteMaskRequest(victim, quote=quote))
    vectors = deployment.local_vectors()
    report = deployment.engine.run_round(
        1, users, vectors, deployment.features.bigrams
    )
    verdict = invariants.judge(report, deployment.codec, vectors)
    assert verdict.outcome == invariants.OUTCOME_EXACT
    assert verdict.offenders == (m.client_endpoint(victim),)
    assert report.outcomes[victim] == OUTCOME_QUARANTINED
    assert [(v.offender, v.kind) for v in report.violations] == [
        (m.client_endpoint(victim), VIOLATION_MALFORMED)
    ]


# ------------------------------------------------------------ packed vectors

W = kernels.be_words_to_bytes
F = kernels.be_doubles_to_bytes


def _packed_field(field, value):
    """A message whose packed-vector ``field`` holds ``value``."""
    if field == "ring_payload":
        contribution = _contribution(ring_payload=value)
    elif field == "plain_payload":
        contribution = _contribution(
            blinded=False, ring_payload=None, plain_payload=value
        )
    else:
        return m.KIND_FINALIZE, m.FinalizeRound(1, repair=value, repaired=2)
    return m.KIND_SUBMIT, m.SubmitContribution(contribution=contribution)


PACKED_FIELDS = ["ring_payload", "plain_payload", "dropout_mask"]


@pytest.mark.parametrize(
    "field, value",
    [
        ("ring_payload", W((0, 1, (1 << 64) - 1))),
        ("dropout_mask", W((0, 1, (1 << 64) - 1))),
        ("plain_payload", F((0.5, -1.0, 1e300))),
    ],
)
def test_packed_vector_accepted(field, value):
    kind, payload = _packed_field(field, value)
    validate_payload(kind, SENDER, payload)


@pytest.mark.parametrize("field", PACKED_FIELDS)
@pytest.mark.parametrize(
    "value",
    [
        pytest.param((1, 2, 3), id="tuple"),
        pytest.param((0.5, 0.25), id="float-tuple"),
        pytest.param(bytearray(16), id="bytearray"),
        pytest.param(memoryview(bytes(16)), id="memoryview"),
        pytest.param(b"", id="empty"),
        pytest.param(bytes(15), id="torn"),
        pytest.param(bytes(17), id="trailing-byte"),
        pytest.param(None, id="none"),
    ],
)
def test_malformed_packed_vector_is_blamed_on_the_sender(field, value):
    kind, payload = _packed_field(field, value)
    with pytest.raises(ProtocolViolation) as excinfo:
        validate_payload(kind, SENDER, payload)
    _assert_blamed(excinfo)


@pytest.mark.parametrize("field", PACKED_FIELDS)
def test_packed_vector_over_the_cap_is_blamed_on_the_sender(field, monkeypatch):
    monkeypatch.setattr(codec, "MAX_VECTOR_LENGTH", 4)
    kind, payload = _packed_field(field, F((0.0,) * 4))
    validate_payload(kind, SENDER, payload)
    kind, payload = _packed_field(field, F((0.0,) * 5))
    with pytest.raises(ProtocolViolation) as excinfo:
        validate_payload(kind, SENDER, payload)
    _assert_blamed(excinfo)
    assert "cap" in str(excinfo.value)


@pytest.mark.parametrize("field", ["plain_payload"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=str)
def test_packed_non_finite_floats_are_blamed_on_the_sender(field, bad):
    kind, payload = _packed_field(field, F((0.5, bad, 0.25)))
    with pytest.raises(ProtocolViolation) as excinfo:
        validate_payload(kind, SENDER, payload)
    _assert_blamed(excinfo)
    assert "non-finite" in str(excinfo.value)


@pytest.mark.parametrize("length", [77, 4096])
def test_on_wire_size_does_not_depend_on_the_values(length):
    """Packed vectors price by length alone: the bus's frame length of
    all-zero and all-ones words is the same."""
    sizes = {
        len(codec.encode(_packed_field("ring_payload", W([word] * length))[1]))
        for word in (0, (1 << 64) - 1)
    }
    assert len(sizes) == 1


class RewriteSubmit(NetworkAdversary):
    """On-path: rewrite the ring payload of one device's submissions."""

    def __init__(self, user_id: str, rewrite) -> None:
        self.sender = m.client_endpoint(user_id)
        self.rewrite = rewrite

    def process(self, message):
        if message.kind == m.KIND_SUBMIT and message.sender == self.sender:
            contribution = message.payload.contribution
            rewritten = replace(
                contribution, ring_payload=self.rewrite(contribution.ring_payload)
            )
            return message.with_payload(
                replace(message.payload, contribution=rewritten)
            )
        return message


@pytest.mark.parametrize(
    "rewrite",
    [
        pytest.param(kernels.bytes_to_be_words, id="tuple"),
        pytest.param(lambda words: words[:-1], id="torn"),
        pytest.param(lambda words: b"", id="empty"),
        pytest.param(bytearray, id="bytearray"),
    ],
)
def test_rewritten_ring_payload_ends_in_a_verdict(rewrite):
    """A payload reshaped in transit is blamed on the device that sent it:
    the round finalizes exactly over the rest, that device quarantined."""
    deployment = Deployment.build(num_users=4, seed=b"wire-tamper")
    users = [user.user_id for user in deployment.corpus.users]
    victim = users[1]
    deployment.network.interpose(RewriteSubmit(victim, rewrite))
    vectors = deployment.local_vectors()
    report = deployment.engine.run_round(1, users, vectors, deployment.features.bigrams)
    verdict = invariants.judge(report, deployment.codec, vectors)
    assert verdict.outcome == invariants.OUTCOME_EXACT
    assert verdict.offenders == (m.client_endpoint(victim),)
    assert report.outcomes[victim] == OUTCOME_QUARANTINED


class RewriteConfidence(NetworkAdversary):
    """On-path: move the confidence of some devices' submissions inside the
    1/10,000 quantum their signatures cover."""

    def __init__(self, user_ids, confidence: float) -> None:
        self.senders = {m.client_endpoint(user_id) for user_id in user_ids}
        self.confidence = confidence
        self.rewritten = 0

    def process(self, message):
        if message.kind == m.KIND_SUBMIT and message.sender in self.senders:
            contribution = replace(message.payload.contribution, confidence=self.confidence)
            self.rewritten += 1
            return message.with_payload(replace(message.payload, contribution=contribution))
        return message


def test_a_confidence_rewritten_inside_its_signed_quantum_is_refused():
    """The signature covers ``round(confidence * 10_000)``, so 1.0 and
    0.99996 share one digest: a rewrite between them used to be admitted
    under the device's signature.  Only the signed quantum has a spelling,
    so each rewritten submission is refused at the wire and blamed on its
    sender, and the round is exact over the submissions admitted."""
    deployment = Deployment.build(num_users=4, seed=b"conf-probe")
    users = [user.user_id for user in deployment.corpus.users]
    victims = users[1::2]
    rewrite = RewriteConfidence(victims, 0.99996)
    deployment.network.interpose(rewrite)
    vectors = deployment.local_vectors()
    report = deployment.engine.run_round(1, users, vectors, deployment.features.bigrams)
    verdict = invariants.judge(report, deployment.codec, vectors)
    assert rewrite.rewritten == len(victims)
    assert verdict.outcome == invariants.OUTCOME_EXACT
    assert verdict.offenders == tuple(sorted(map(m.client_endpoint, victims)))
    assert {user: report.outcomes[user] for user in victims} == dict.fromkeys(
        victims, OUTCOME_QUARANTINED
    )
    assert sorted(report.survivors) == sorted(set(users) - set(victims))


@pytest.mark.parametrize("k", [0, 1, 2, 4999, 5000, 9500, 9999, 10_000])
def test_a_signed_confidence_crosses_as_its_u16(k):
    contribution = _contribution(confidence=k / 10_000)
    frame = codec.encode(contribution)
    assert codec.decode(frame) == contribution
    assert len(frame) == len(codec.encode(_contribution(confidence=0.5)))


class RewriteFinalize(NetworkAdversary):
    """On-path: rewrite the repair masks the engine hands the service."""

    def __init__(self, rewrite) -> None:
        self.rewrite = rewrite

    def process(self, message):
        if message.kind == m.KIND_FINALIZE:
            repair = self.rewrite(message.payload.repair)
            return message.with_payload(replace(message.payload, repair=repair))
        return message


@pytest.mark.parametrize(
    "rewrite",
    [
        pytest.param(kernels.bytes_to_be_words, id="tuple"),
        pytest.param(lambda words: words[:-1], id="torn"),
    ],
)
def test_rewritten_dropout_mask_is_a_violation_end_to_end(rewrite):
    """Like any refused leg: the engine's message fails the service's
    schema, and the round aborts with one ``malformed`` violation blamed
    on the engine."""
    deployment = Deployment.build(num_users=4, seed=b"wire-tamper")
    users = [user.user_id for user in deployment.corpus.users]
    deployment.network.interpose(RewriteFinalize(rewrite))
    with pytest.raises(RoundAbortedError) as excinfo:
        deployment.engine.run_round(
            1, users, deployment.local_vectors(), deployment.features.bigrams,
            dropouts=[users[2]],
        )
    _assert_one_malformed_on_the_engine(excinfo.value)


def test_the_service_receives_one_repair_vector_and_no_dropout_mask():
    """§3 repair crosses as the ring sum of the verified openings: a
    streamed round with two dropouts sends one repair vector, and no
    frame the service receives holds either dropped slot's mask.  The
    bus is tapped where it delivers, since an on-path adversary would
    keep the round off the streamed route."""
    deployment = Deployment.build(
        num_users=6, seed=b"wire-repair", sentences_per_user=8,
        parallelism=ScaleConfig(subgroup_size=3),
    )
    users = [user.user_id for user in deployment.corpus.users]
    delivered = []
    deliver = deployment.network.deliver_raw

    def tap(message):
        response = deliver(message)
        delivered.append((message, response))
        return response

    deployment.network.deliver_raw = tap
    vectors = deployment.local_vectors()
    report = deployment.engine.run_round(
        1, users, vectors, deployment.features.bigrams, dropouts=users[1:3]
    )
    assert report.subgroup_size == 3
    assert invariants.judge(report, deployment.codec, vectors).outcome == (
        invariants.OUTCOME_CLEAN
    )
    openings = [reply for sent, reply in delivered if sent.kind == m.KIND_REVEAL_MASK]
    assert len(openings) == 2
    finalizes = [sent.payload for sent, _ in delivered if sent.kind == m.KIND_FINALIZE]
    assert len(finalizes) == 1
    assert finalizes[0].repaired == 2
    assert finalizes[0].repair == kernels.be_words_to_bytes(
        kernels.ring_accumulate(opening.mask for opening in openings)
    )
    frames = [codec.encode(sent.payload) for sent, _ in delivered if sent.receiver == m.SERVICE]
    for opening in openings:
        assert not any(opening.mask in frame for frame in frames)


@pytest.mark.parametrize(
    "fields",
    [
        pytest.param(dict(repaired=0), id="vector-without-count"),
        pytest.param(dict(repair=None), id="count-without-vector"),
    ],
)
def test_a_repair_and_count_that_disagree_are_blamed_on_the_engine(fields):
    """The service refuses a finalize whose repair vector and repair count
    disagree, at the wire (the round aborts with one ``malformed``
    violation on the engine) and in process."""
    deployment = Deployment.build(num_users=4, seed=b"wire-tamper")
    users = [user.user_id for user in deployment.corpus.users]
    deployment.network.interpose(RewriteOpen(m.KIND_FINALIZE, **fields))
    with pytest.raises(RoundAbortedError) as excinfo:
        deployment.engine.run_round(
            1, users, deployment.local_vectors(), deployment.features.bigrams,
            dropouts=[users[2]],
        )
    _assert_one_malformed_on_the_engine(excinfo.value)
    request = replace(m.FinalizeRound(1, W((1, 2)), 1), **fields)
    with pytest.raises(ConfigurationError):
        deployment.service.finalize_blinded_round(1, request.repair, request.repaired)


class RewriteOpen(NetworkAdversary):
    """On-path: rewrite the fields of every engine command of one kind."""

    def __init__(self, kind: str, **fields) -> None:
        self.kind, self.fields = kind, fields

    def process(self, message):
        if message.kind == self.kind:
            return message.with_payload(replace(message.payload, **self.fields))
        return message


@pytest.mark.parametrize(
    "kind, fields",
    [
        pytest.param(m.KIND_OPEN_BLINDER, dict(vector_length=0), id="open-blinder"),
        pytest.param(m.KIND_OPEN_SERVICE, dict(expected_parties=0), id="open-service"),
    ],
)
def test_rewritten_open_command_is_a_blamed_abort(kind, fields):
    """A round-open command rewritten in transit aborts the round, blamed
    on the engine, rather than leaving ``run_round`` as a raw violation."""
    deployment = Deployment.build(num_users=4, seed=b"wire-tamper")
    deployment.network.interpose(RewriteOpen(kind, **fields))
    with pytest.raises(RoundAbortedError) as excinfo:
        deployment.honest_round(1)
    _assert_one_malformed_on_the_engine(excinfo.value)


def _assert_one_malformed_on_the_engine(abort) -> None:
    violations = [(v.offender, v.kind) for v in abort.report.violations]
    assert violations == [(m.ENGINE, VIOLATION_MALFORMED)]
    verdict = invariants.judge(abort, None, {})
    assert (verdict.outcome, verdict.offenders) == (
        invariants.OUTCOME_DETECTED_ABORT, (m.ENGINE,)
    )

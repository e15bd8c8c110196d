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
from repro.core.signing import SignedContribution, SigningComponent
from repro.crypto.dh import OAKLEY_GROUP_1, TEST_GROUP
from repro.crypto.fixedpoint import ring_width
from repro.core.service import CloudService
from repro.crypto.drbg import HmacDrbg
from repro.crypto.schnorr import SchnorrKeyPair, SchnorrSignature
from repro.errors import ConfigurationError, ProtocolViolation, RoundAbortedError
from repro.experiments.common import Deployment
from repro.network.adversary import EavesdropAdversary, NetworkAdversary
from repro.perf import kernels
from repro.network.message import Message
from repro.runtime import messages as m
from repro.runtime.endpoints import ServiceEndpoint
from repro.runtime.protocol import (
    ProtocolMonitor,
    VIOLATION_MALFORMED,
    VIOLATION_OUT_OF_PHASE,
    VIOLATION_QUARANTINED,
)
from repro.runtime.telemetry import (
    OUTCOME_ACCEPTED,
    OUTCOME_CRASHED,
    OUTCOME_QUARANTINED,
    OUTCOME_SERVICE_REJECTED,
    OUTCOME_UNREACHABLE,
)
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


def _read_at_the_service(kind, payload, width: int = 64, sender: str = SENDER) -> None:
    """Deliver ``payload`` as the service reads it: held to its declared
    checks at decode, then its ring words to their one spelling at the
    width its round was opened at (64 bits, ``W``'s words, by default) at
    the service's endpoint — behind the monitor's gate for a submission,
    before the service for a finalize's repair."""
    validate_payload(kind, sender, payload)
    key = SchnorrKeyPair.generate(HmacDrbg(b"wire"), TEST_GROUP)
    service = CloudService(key.public_key)
    service.open_round(1, 4, vector_length=3, width=width)
    endpoint = ServiceEndpoint(service, ProtocolMonitor())
    if kind == m.KIND_SUBMIT:
        endpoint.admit(1, sender, 0, payload.contribution)
    else:
        endpoint._handle_finalize(Message(sender, m.SERVICE, kind, payload, 1, 0.0, 1))


@pytest.mark.parametrize("field", PACKED_FIELDS)
@pytest.mark.parametrize(
    "value",
    [
        pytest.param((1, 2, 3), id="tuple"),
        pytest.param((0.5, 0.25), id="float-tuple"),
        pytest.param(bytearray(16), id="bytearray"),
        pytest.param(memoryview(bytes(16)), id="memoryview"),
        pytest.param(b"", id="empty"),
        pytest.param(bytes(23), id="torn"),  # no spelling of whole 64-bit words
        pytest.param(bytes(17), id="trailing-byte"),
        pytest.param(None, id="none"),
    ],
)
def test_malformed_packed_vector_is_blamed_on_the_sender(field, value):
    """Refused, and blamed on its sender as ``malformed``: at decode, or,
    for ring words torn or lengthened at their round's width, where the
    service reads them at that width."""
    kind, payload = _packed_field(field, value)
    with pytest.raises(ProtocolViolation) as excinfo:
        _read_at_the_service(kind, payload)
    _assert_blamed(excinfo)


@pytest.mark.parametrize("field", ["ring_payload", "dropout_mask"])
@pytest.mark.parametrize("bits", [20, 25, 41])
@pytest.mark.parametrize("flaw", ["one-byte-short", "pad-bit"])
def test_ring_words_misspelled_at_their_rounds_width_are_blamed_on_the_sender(
    field, bits, flaw
):
    """The codec judges ring words by type and cap alone; the service's
    endpoint holds a submission's words and a repair to their one spelling
    at the round's width: one byte short, or with a pad bit set, is a
    ``malformed`` message from its sender, as a torn frame refused at
    decode was."""
    words = kernels.pack_words(range(3), bits)
    words = words[:-1] if flaw == "one-byte-short" else words[:-1] + bytes([words[-1] | 1])
    assert kernels.misspelled(words, bits)
    kind, payload = _packed_field(field, words)
    validate_payload(kind, SENDER, payload)
    with pytest.raises(ProtocolViolation) as excinfo:
        _read_at_the_service(kind, payload, bits)
    _assert_blamed(excinfo)


def test_torn_words_naming_another_open_round_are_blamed_on_the_sender():
    """Words are spelled at the width of the round the contribution names:
    torn at that round's width, they are ``malformed`` from the sender,
    not the service's ``wrong-round``; naming a round that is not open,
    they have no width to be torn at and are the service's to refuse."""
    key = SchnorrKeyPair.generate(HmacDrbg(b"wire"), TEST_GROUP)
    service = CloudService(key.public_key)
    service.open_round(1, 4, vector_length=3, width=64)
    service.open_round(2, 4, vector_length=3, width=25)
    endpoint = ServiceEndpoint(service, ProtocolMonitor())
    torn = kernels.pack_words(range(3), 25)[:-1]
    with pytest.raises(ProtocolViolation) as excinfo:
        endpoint.admit(1, SENDER, 0, replace(_contribution(ring_payload=torn), round_id=2))
    _assert_blamed(excinfo)
    closed = replace(_contribution(ring_payload=torn), round_id=3)
    assert endpoint.admit(1, SENDER, 1, closed) is False


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
        pytest.param(tuple, id="tuple"),
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
        pytest.param(tuple, id="tuple"),
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
    width = next(sent.payload.width for sent, _ in delivered if sent.kind == m.KIND_OPEN_SERVICE)
    assert finalizes[0].repair == kernels.pack_words(
        kernels.ring_accumulate(opening.share.row() for opening in openings), width
    )
    frames = [codec.encode(sent.payload) for sent, _ in delivered if sent.receiver == m.SERVICE]
    for opening in openings:
        row = opening.share.row()
        narrowed = kernels.pack_words(row, width)
        assert not any(row in frame or narrowed in frame for frame in frames)


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
        pytest.param(m.KIND_OPEN_SERVICE, dict(width=3), id="open-service-width-3"),
        pytest.param(m.KIND_OPEN_SERVICE, dict(width=5), id="open-service-width-5"),
        pytest.param(m.KIND_OPEN_SERVICE, dict(width=8), id="open-service-width-8"),
    ],
)
def test_rewritten_open_command_is_a_blamed_abort(kind, fields):
    """A round-open command rewritten in transit aborts the round, blamed
    on the engine, rather than leaving ``run_round`` as a raw violation:
    refused at the wire (a party count of 0, a width below the floor of 8
    bits), or acked as a round other than the one sent (any other width
    than the 20 bits these parties' values in [0, 1] need)."""
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


# ------------------------------------------------ blinded words at width


def _wide_deployment(**overrides) -> Deployment:
    """8 parties under a predicate that proves no bound, so their words
    are sized by the codec's own: 41 bits, each spanning a sixth byte."""
    return Deployment.build(
        num_users=8, seed=b"wire-width", sentences_per_user=8, predicate_spec="accept-all",
        **overrides,
    )


def _six_byte_round():
    """Round 1 of 8 parties, whose blinded words cross at 41 bits (a sixth
    byte's span), with one device's honest contribution folded.  Its
    k = 41 words spelled at 64 bits are exactly 64 whole 41-bit words,
    with no pad bit, so only the count the round opened with can refuse
    them."""
    deployment = _wide_deployment(max_features=41)
    users = [user.user_id for user in deployment.corpus.users]
    assert len(deployment.features) == 41
    deployment.open_round(1, users)
    assert deployment.engine.round_record(1).width == ring_width(len(users)) == 41
    vectors = deployment.local_vectors()
    features = deployment.features.bigrams
    assert deployment.engine.contribute(users[0], 1, list(vectors[users[0]]), features) == (
        OUTCOME_ACCEPTED
    )
    return deployment, users, vectors


def test_a_submission_in_8_byte_words_is_malformed_in_a_6_byte_round():
    """Validly signed, but spelled as 8-byte words where the round's are
    41 bits: 64 words' spelling, so the admission step books it
    ``malformed-payload``, blamed on its sender, and the folded total is
    untouched."""
    deployment, users, vectors = _six_byte_round()
    words = deployment.codec.encode(vectors[users[1]])
    signed = SigningComponent(deployment.signing_keypair).endorse(
        1, b"\x08" * 16, True, kernels.be_words_to_bytes(words), None, 1.0
    )
    assert kernels.misspelled(signed.ring_payload, 41) is None
    state = deployment.service.round_state(1)
    before = state.accumulator.partials()
    sender = m.client_endpoint(users[1])
    assert not deployment.engine._service_endpoint.admit(1, sender, 1, signed)
    assert state.rejected == {"malformed-payload": 1}
    assert deployment.engine.monitor._round(1).rejected_counts == {sender: 1}
    assert np.array_equal(state.accumulator.partials(), before)


def _lying_host(deployment, user_id: str) -> None:
    """The device's host hands its Glimmer 64 bits for every mask in place
    of the round's width, and the Glimmer narrows at it: a wider width
    than the round's holds the sum, so nothing inside can refuse it."""
    liar = deployment.clients[user_id]
    install = liar.install_mask
    liar.install_mask = lambda round_id, slot, delivery, record, _width: install(
        round_id, slot, delivery, record, 64
    )


def test_a_glimmer_narrowed_at_a_host_chosen_width_is_blamed_on_its_host():
    """With k = 77, the 64-bit words a lying host gets signed in a 41-bit
    round are no spelling at the round's width (4,928 bits is 120 words
    and 8 bits over): on the bus the device is blamed and quarantined,
    and the round is exact over the rest."""
    deployment = _wide_deployment()
    users = [user.user_id for user in deployment.corpus.users]
    assert kernels.misspelled(bytes(8 * len(deployment.features)), 41)
    _lying_host(deployment, users[2])
    vectors = deployment.local_vectors()
    report = deployment.engine.run_round(1, users, vectors, deployment.features.bigrams)
    verdict = invariants.judge(report, deployment.codec, vectors)
    assert verdict.outcome == invariants.OUTCOME_EXACT
    assert verdict.offenders == (m.client_endpoint(users[2]),)
    assert report.outcomes[users[2]] == OUTCOME_QUARANTINED


class RewriteTo(RewriteOpen):
    """On-path: rewrite the fields of every engine command of one kind to
    one receiver."""

    def __init__(self, kind: str, receiver: str, **fields) -> None:
        super().__init__(kind, **fields)
        self.receiver = receiver

    def process(self, message):
        return super().process(message) if message.receiver == self.receiver else message


@pytest.mark.parametrize("width", [4, 5])
def test_a_narrower_provision_width_is_refused_at_install(width):
    """A provision command rewritten in transit to a width too narrow for
    the round's sum — the ``8 · width`` bits of a whole-byte width: 32, or
    40, one bit narrower than the round's 41 — is refused by the device's
    Glimmer before it installs the mask: that device is down for the
    round, its slot repaired, nobody blamed, and the round exact over the
    rest."""
    deployment = _wide_deployment()
    users = [user.user_id for user in deployment.corpus.users]
    victim = users[2]
    deployment.network.interpose(
        RewriteTo(m.KIND_PROVISION_MASK, m.client_endpoint(victim), width=8 * width)
    )
    vectors = deployment.local_vectors()
    report = deployment.engine.run_round(1, users, vectors, deployment.features.bigrams)
    assert invariants.judge(report, deployment.codec, vectors).exact
    assert report.outcomes[victim] == OUTCOME_CRASHED
    assert victim not in report.survivors and report.masks_repaired == 1
    assert set(report.survivors) == set(users) - {victim}
    assert not report.violations


def test_a_lying_host_that_submits_first_cannot_set_the_rounds_length():
    """With k = 41, a lying host's 64-bit words are 64 whole 41-bit words,
    23 too many.  Its device submits first; the count the round opened
    with still refuses its payload alone, as ``malformed-payload`` counted
    against it, and every honest device after it folds: the round is exact
    over the rest."""
    deployment = _wide_deployment(max_features=41)
    users = [user.user_id for user in deployment.corpus.users]
    _lying_host(deployment, users[0])
    deployment.open_round(1, users)
    vectors = deployment.local_vectors()
    features = deployment.features.bigrams
    outcomes = [
        deployment.engine.contribute(user, 1, list(vectors[user]), features) for user in users
    ]
    assert outcomes == [OUTCOME_SERVICE_REJECTED] + [OUTCOME_ACCEPTED] * 7
    state = deployment.service.round_state(1)
    assert state.rejected == {"malformed-payload": 1}
    assert deployment.engine.monitor._round(1).rejected_counts == {
        m.client_endpoint(users[0]): 1
    }
    report = deployment.engine.finalize_round(1)
    verdict = invariants.judge(report, deployment.codec, vectors)
    assert verdict.outcome == invariants.OUTCOME_EXACT
    assert report.masks_repaired == 1


def test_a_late_torn_submission_is_out_of_phase():
    """The width check runs behind the monitor's gate: a submission into a
    round the service has closed is refused as out of phase, torn words or
    not, and one from a quarantined sender as quarantined."""
    deployment = Deployment.build(num_users=4, seed=b"wire-width")
    eavesdropper = EavesdropAdversary()
    deployment.network.interpose(eavesdropper)
    deployment.honest_round(1)
    submit = eavesdropper.captured_payloads(m.KIND_SUBMIT)[0]
    sender = next(
        message.sender for message in eavesdropper.captured if message.payload is submit
    )
    # Torn at the round's 20-bit width; the codec judges no word's
    # spelling, so the frame reaches the gate.
    words = submit.contribution.ring_payload[:-1]
    assert kernels.misspelled(words, 20)
    torn = replace(submit, contribution=replace(submit.contribution, ring_payload=words))
    monitor = deployment.engine.monitor
    with pytest.raises(ProtocolViolation) as excinfo:
        deployment.network.call(sender, m.SERVICE, m.KIND_SUBMIT, torn)
    assert (excinfo.value.offender, excinfo.value.kind) == (sender, VIOLATION_OUT_OF_PHASE)

    deployment.open_round(2, [user.user_id for user in deployment.corpus.users])
    monitor.quarantine.block(monitor.record(2, sender, VIOLATION_MALFORMED, "blocked"))
    torn = replace(torn, contribution=replace(torn.contribution, round_id=2))
    with pytest.raises(ProtocolViolation) as excinfo:
        deployment.network.call(sender, m.SERVICE, m.KIND_SUBMIT, torn)
    assert (excinfo.value.offender, excinfo.value.kind) == (sender, VIOLATION_QUARANTINED)


def test_a_forger_writing_at_the_rounds_width_is_an_invalid_signature():
    """A self-signed contribution in the round's own shape passes every
    check but the signature."""
    deployment, users, vectors = _six_byte_round()
    evil = deployment.make_client("mallory", malicious=True)
    forged = evil.bypass_glimmer(
        1, list(vectors[users[1]]), deployment.engine.round_record(1).width
    )
    assert len(forged.ring_payload) == -(-41 * len(deployment.features) // 8)
    assert not deployment.engine.submit_signed("mallory", 1, forged)
    assert deployment.service.round_state(1).rejected == {"invalid-signature": 1}


@pytest.mark.parametrize("parties", [8, 2048, codec.MAX_PARTIES], ids=["w6", "w7", "w8"])
def test_a_rewritten_party_count_never_corrupts_the_round(parties):
    """The open command's party count sets the slots the service plans the
    round over.  Rewritten in transit, the service acks a round other than
    the one sent: the round aborts at open, blamed on the engine's leg,
    before any device could be blamed."""
    deployment = Deployment.build(num_users=4, seed=b"wire-tamper")
    assert ring_width(parties) != ring_width(4)
    deployment.network.interpose(RewriteOpen(m.KIND_OPEN_SERVICE, expected_parties=parties))
    with pytest.raises(RoundAbortedError) as excinfo:
        deployment.honest_round(1)
    assert not excinfo.value.report.outcomes
    _assert_one_malformed_on_the_engine(excinfo.value)


def test_a_rewritten_vector_length_aborts_at_open():
    """The count the service refuses every other payload by is held to the
    engine's own too."""
    deployment = Deployment.build(num_users=4, seed=b"wire-tamper")
    deployment.network.interpose(
        RewriteOpen(m.KIND_OPEN_SERVICE, vector_length=len(deployment.features) + 1)
    )
    with pytest.raises(RoundAbortedError) as excinfo:
        deployment.honest_round(1)
    assert not excinfo.value.report.outcomes
    _assert_one_malformed_on_the_engine(excinfo.value)

"""The one wire codec: round trips, refusals, aliasing and sizes.

Every registered dataclass round-trips to an equal value of the same
type, and so does every distinction the wire validators draw (``bytes``
vs ``bytearray`` vs ``memoryview``, ``bool`` vs ``int``, ``tuple`` vs
``list``).  ``decode`` refuses anything that is not exactly one frame
with ``ProtocolViolation`` and nothing else.  A bus handler holds what
crossed, never the sender's object, and sizes follow shape, not value.
"""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import codec, invariants
from repro.core.auditor import VerdictMessage
from repro.core.glimmer import KeyDelivery, ProcessRequest
from repro.core.remote import AttestedOffer
from repro.core.service import RoundResult
from repro.core.signing import SignedContribution
from repro.core.split import PairingOffer
from repro.core.validation import PrivateContext
from repro.crypto.commitments import (
    MaskCommitmentRecord,
    MaskCommitmentSet,
    MaskOpening,
)
from repro.crypto.schnorr import SchnorrSignature
from repro.errors import ProtocolViolation, UnencodablePayload
from repro.experiments.common import Deployment
from repro.network.adversary import NetworkAdversary
from repro.network.transport import Network
from repro.perf import kernels
from repro.runtime import messages as m
from repro.runtime.protocol import VIOLATION_MALFORMED
from repro.runtime.telemetry import OUTCOME_QUARANTINED
from repro.sgx.attestation import Quote, Report
from repro.sgx.enclave import payload_size
from repro.workloads.botnet import SessionSignals
from repro.workloads.camera import Frame, VideoStream
from repro.workloads.geo import PhotoSubmission, TrackPoint, UserGeoContext
from repro.workloads.keyboard import KeyEvent, KeystrokeTrace
from repro.workloads.reviews import Purchase, Review, UserShoppingContext

SIG = SchnorrSignature(challenge=3, response=(1 << 160) + 7, commitment=1 << 1023)
QUOTE = Quote(
    mrenclave=b"\x01" * 32,
    mrsigner=b"\x02" * 32,
    version=1,
    debug=False,
    report_data=b"\x03" * 64,
    platform_id=b"\x04" * 16,
    signature=SIG,
)
CONTRIBUTION = SignedContribution(
    round_id=7,
    nonce=b"\x07" * 16,
    blinded=True,
    ring_payload=kernels.be_words_to_bytes((1, 2, (1 << 64) - 1)),
    plain_payload=None,
    confidence=0.5,
    signature=SIG,
)
RECORD = MaskCommitmentRecord(
    round_id=7, slot=1, num_slots=3, vector_length=2, modulus_bits=64,
    group_name="test-64bit", root=b"\x09" * 32, hash_commitment=b"\x0a" * 32,
    point=(1 << 70) + 3,
)
TRACK = [TrackPoint(1.0, 2.0, 3.0), TrackPoint(-1.0, 0.0, 4.5)]
FRAMES = [Frame(0, 0.25, 0.5), Frame(1, 0.5, 0.75)]
BIGRAMS = (("the", "cat"), ("cat", "sat"))
W = kernels.be_words_to_bytes
F = kernels.be_doubles_to_bytes

# One instance of every registered dataclass, by class.
SAMPLES = {
    m.OpenBlinderRound: m.OpenBlinderRound(1, 192, 77, subgroup_size=8),
    m.OpenServiceRound: m.OpenServiceRound(1, 192, subgroup_size=0),
    m.ProvisionMask: m.ProvisionMask(1, 3, RECORD),
    m.MaskRequest: m.MaskRequest(b"\x05" * 16, None, None, 1, 3),
    m.ContributeCommand: m.ContributeCommand(
        round_id=1,
        values=kernels.be_doubles_to_bytes((0.5, -1.0)),
        features=BIGRAMS,
        features_digest=b"\x00" * 32,
    ),
    m.SubmitContribution: m.SubmitContribution(7, CONTRIBUTION, slot=1),
    m.SubmissionStatusQuery: m.SubmissionStatusQuery(7, b"\x07" * 16),
    m.RevealMask: m.RevealMask(7, 2),
    m.FinalizeRound: m.FinalizeRound(7, (kernels.be_words_to_bytes((4, 5)),)),
    m.CloseRound: m.CloseRound(7),
    SignedContribution: CONTRIBUTION,
    SchnorrSignature: SIG,
    Report: Report(
        b"\x01" * 32, b"\x02" * 32, 2, True, b"\x03" * 64, b"\x04" * 16, b"\x05" * 32
    ),
    Quote: QUOTE,
    MaskOpening: MaskOpening(
        mask=kernels.be_words_to_bytes((0, (1 << 64) - 1)), salt=b"\x06" * 32, randomizer=9
    ),
    MaskCommitmentRecord: RECORD,
    MaskCommitmentSet: MaskCommitmentSet(
        round_id=7, num_slots=2, vector_length=2, modulus_bits=64,
        group_name="test-64bit", hash_commitments=(b"\x01" * 32, b"\x02" * 32),
        points=(5, 1 << 80), column_sums=kernels.be_words_to_bytes((1, 2, 3, 4, 5, 6, 7, 8)),
        randomizer_sum=11,
    ),
    KeyDelivery: KeyDelivery(b"\x05" * 16, 0, None, b"\x08" * 48),
    ProcessRequest: ProcessRequest(
        round_id=7,
        values=kernels.be_doubles_to_bytes((0.5, 0.25)),
        features=BIGRAMS,
        blind=False,
        party_index=2,
        context_fields=("geo",),
        claims={"trace": b"\x01", "age": 30},
    ),
    PrivateContext: PrivateContext(
        sentences=["the cat sat"],
        keystroke_trace=KeystrokeTrace([KeyEvent("t", 1.0), KeyEvent("h", 2.5)]),
        geo_context=UserGeoContext("u1", TRACK, b"\x0b" * 8),
        shopping_context=UserShoppingContext("u1", [Purchase("p1", 9.0)]),
        session_signals=SessionSignals(
            "s1", 1.0, 2.0, 3.0, 4.0, 0.5, 0.25, ("a.com",), ("c1",), "news", False
        ),
        video_stream=VideoStream("u1", FRAMES, "walking"),
        extra={"features": BIGRAMS, "round_id": 7},
    ),
    RoundResult: RoundResult(
        round_id=7,
        aggregate=np.array([0.5, -1.25]),
        num_contributions=1,
        num_dropouts_repaired=0,
        rejected={"client:x": "bad-signature"},
        accepted=(CONTRIBUTION,),
    ),
    AttestedOffer: AttestedOffer(b"\x05" * 16, 12345, QUOTE),
    PairingOffer: PairingOffer(dh_public=99, report=None),
    VerdictMessage: VerdictMessage("s1", b"\x01" * 16, 1, b"\x02" * 32, b"\x03" * 64),
    KeyEvent: KeyEvent("x", 1.5),
    KeystrokeTrace: KeystrokeTrace([KeyEvent("x", 1.5)]),
    TrackPoint: TRACK[0],
    PhotoSubmission: PhotoSubmission("p1", "u1", 1.0, 2.0, 3.0, b"\x0c" * 8, True),
    UserGeoContext: UserGeoContext("u1", TRACK, b"\x0b" * 8),
    Frame: FRAMES[0],
    VideoStream: VideoStream("u1", FRAMES, "walking"),
    SessionSignals: SessionSignals(
        "s1", 1.0, 2.0, 3.0, 4.0, 0.5, 0.25, ("a.com",), ("c1",), "news", True
    ),
    Purchase: Purchase("p1", 9.0),
    Review: Review("r1", "u1", "p1", 5, 10.0, False),
    UserShoppingContext: UserShoppingContext("u1", [Purchase("p1", 9.0)]),
}


def _round_trip(value):
    return codec.decode(codec.encode(value))


def _same(a, b) -> bool:
    """Equal, of the same type, all the way down (arrays and NaN included)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if a.__class__ in SAMPLES:
        return all(_same(x, y) for x, y in zip(vars(a).values(), vars(b).values()))
    return a == b


# ------------------------------------------------------------------ round trips


def test_every_registered_class_has_a_sample():
    assert set(codec.registered().values()) == set(SAMPLES)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__qualname__)
def test_registered_class_round_trips(cls):
    value = SAMPLES[cls]
    decoded = _round_trip(value)
    assert _same(decoded, value)
    assert decoded is not value


@pytest.mark.parametrize(
    "value",
    [
        None, True, False, 0, 1, -1, (1 << 63) - 1, -(1 << 63), 1 << 63, 1 << 64,
        -(1 << 64), 10**400, -(10**400), 0.0, -0.0, 1e300, float("inf"),
        float("nan"), b"", b"\x00\xff", bytearray(b"ab"), memoryview(b"cd"),
        "", "héllo ☃", (), [], {}, (1,), [1], (True, 1, 1.0),
        [b"a", bytearray(b"a"), memoryview(b"a")], {"k": (1, [2.5, None])},
        {1: "a", (2, "b"): b"c"}, np.array([]), np.array([0.5, float("nan")]),
        tuple(range(-3, 4)), (0.5, 0.25), ("a", "b"), BIGRAMS, [("a", 1), ("b", "c")],
    ],
)
def test_builtin_round_trip_preserves_type(value):
    assert _same(_round_trip(value), value)


@pytest.mark.parametrize(
    "left, right",
    [
        (b"ab", bytearray(b"ab")), (b"ab", memoryview(b"ab")),
        (bytearray(b"ab"), memoryview(b"ab")), (True, 1), (False, 0),
        ((1, 2), [1, 2]), (1, 1.0),
    ],
)
def test_validator_distinctions_survive(left, right):
    """What the wire validators tell apart, the codec keeps apart."""
    assert type(_round_trip(left)) is type(left)
    assert type(_round_trip(right)) is type(right)
    assert codec.encode(left) != codec.encode(right)


def test_nan_keeps_its_bits():
    nan = struct.unpack(">d", bytes.fromhex("7ff8000000000123"))[0]
    assert struct.pack(">d", _round_trip(nan)) == struct.pack(">d", nan)


def test_scalar_subclasses_travel_as_their_base_type():
    assert _same(_round_trip(np.float64(0.25)), 0.25)
    assert _same(_round_trip((np.float64(0.25), 1.0)), (0.25, 1.0))


@pytest.mark.parametrize(
    "value",
    [
        tuple(np.linspace(-1, 1, 257).tolist()),
        tuple(range(-(1 << 62), 1 << 62, 1 << 55)),
        tuple(f"wé{i}" for i in range(50)),
        tuple((f"f{i}", "v☃") for i in range(50)),
        [("a", "b")] * 3,
        tuple((i * 0x9E3779B97F4A7C15) % (1 << 64) for i in range(300)),
        tuple((i, -i, 1 << 62) for i in range(100)),
        [(1, 2), (3, 4)],
    ],
    ids=["floats", "ints", "strs", "str-pairs", "pair-list", "u64-words", "int-rows",
         "row-list"],
)
def test_homogeneous_runs_frame_like_the_item_path(value):
    """The one-pack fast paths write exactly the per-item bytes."""
    tag = codec.TUPLE if type(value) is tuple else codec.LIST
    items = b"".join(codec.encode(item) for item in value)
    assert codec.encode(value) == struct.pack(">BI", tag, len(value)) + items
    assert _same(_round_trip(value), value)


@pytest.mark.parametrize(
    "value",
    [
        object(),
        {1, 2},
        frozenset(),
        np.zeros(3, dtype=np.uint64),
        np.zeros((2, 2)),
        1j,
        "\ud800",
        (1, object()),
        ValueError("x"),
    ],
)
def test_unencodable_value_is_refused(value):
    with pytest.raises(UnencodablePayload) as excinfo:
        codec.encode(value)
    assert excinfo.value.kind == VIOLATION_MALFORMED


def test_nesting_is_capped_both_ways():
    deep = ()
    for __ in range(codec.MAX_DEPTH + 1):
        deep = (deep,)
    with pytest.raises(UnencodablePayload):
        codec.encode(deep)
    frame = bytes([codec.TUPLE, 0, 0, 0, 1]) * (codec.MAX_DEPTH + 1)
    frame += bytes([codec.TUPLE, 0, 0, 0, 0])
    with pytest.raises(ProtocolViolation):
        codec.decode(frame)


# ------------------------------------------------------------------ refusals


FRAMES_CORPUS = [codec.encode(value) for value in SAMPLES.values()] + [
    codec.encode(value) for value in (None, 5, 1 << 90, 2.5, b"xyz", "s", BIGRAMS)
]


@pytest.mark.parametrize(
    "frame, reason",
    [
        (b"", "truncated"),
        (bytes([codec.INT, 0, 0]), "truncated"),
        (bytes([codec.BYTES, 0, 0, 0, 9]) + b"abc", "truncated"),
        (bytes([codec.STR, 0, 0, 0, 2]) + b"\xff\xfe", "does not build"),
        (bytes([codec.LIST, 0xFF, 0xFF, 0xFF, 0xFF]), "past the frame"),
        (bytes([codec.DICT, 0, 0, 0, 1, codec.LIST, 0, 0, 0, 0, codec.NONE]), "build"),
        (bytes([0x0E]), "unknown tag"),
        (bytes([0x7F, 0]), "unknown tag"),
        (b"\xff\xff", "unknown dataclass tag"),
        (codec.encode(m.CloseRound(1))[:-1], "truncated"),
        (codec.encode(m.CloseRound(1)) + b"\x00", "trailing"),
        (codec.encode(None) * 2, "trailing"),
    ],
)
def test_malformed_frame_is_a_protocol_violation(frame, reason):
    with pytest.raises(ProtocolViolation) as excinfo:
        codec.decode(frame)
    assert reason in str(excinfo.value)
    assert excinfo.value.kind == VIOLATION_MALFORMED


def _decode_or_violation(frame: bytes) -> None:
    try:
        codec.decode(frame)
    except ProtocolViolation:
        pass


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FRAMES_CORPUS), st.data())
def test_fuzzed_frames_fail_only_as_violations(frame, data):
    """Truncated, over-long, tag-flipped and length-inflated frames: each
    decodes or is refused as a ``ProtocolViolation``, never another error."""
    cut = data.draw(st.integers(0, len(frame) - 1))
    with pytest.raises(ProtocolViolation):
        codec.decode(frame[:cut])  # frames are prefix-free
    extra = data.draw(st.binary(min_size=1, max_size=16))
    with pytest.raises(ProtocolViolation):
        codec.decode(frame + extra)
    at = data.draw(st.integers(0, len(frame) - 1))
    flipped = bytearray(frame)
    flipped[at] = data.draw(st.integers(0, 255))
    _decode_or_violation(bytes(flipped))
    if len(frame) >= 5:
        at = data.draw(st.integers(0, len(frame) - 4))
        inflated = bytearray(frame)
        inflated[at:at + 4] = data.draw(st.integers(0, 2**32 - 1)).to_bytes(4, "big")
        _decode_or_violation(bytes(inflated))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64))
def test_random_bytes_fail_only_as_violations(frame):
    _decode_or_violation(frame)


@settings(max_examples=200, deadline=None)
@given(
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.binary()
        | st.text(),
        lambda inner: st.lists(inner) | st.tuples(inner, inner)
        | st.dictionaries(st.text(), inner),
        max_leaves=20,
    )
)
def test_generated_values_round_trip(value):
    assert _same(_round_trip(value), value)


# ------------------------------------------------------------------ no aliasing


def test_bus_handler_gets_an_equal_copy_not_the_object():
    network = Network(seed=b"codec-alias")
    received = []
    network.register(
        "service", {"submit": lambda msg: received.append(msg.payload) or msg.payload}
    )
    network.register("device", {})
    sent = SAMPLES[m.SubmitContribution]
    reply = network.call("device", "service", "submit", sent)
    (got,) = received
    assert got == sent and got is not sent
    assert got.contribution is not sent.contribution
    assert reply == sent and reply is not got
    assert network.bytes_delivered == len(codec.encode(sent))


# ------------------------------------------------------------------ sizes


@pytest.mark.parametrize("length", [1, 77, 4096])
def test_packed_vector_size_does_not_depend_on_its_words(length):
    sizes = {
        len(codec.encode(replace(CONTRIBUTION, ring_payload=W([word] * length))))
        for word in (0, 1, (1 << 64) - 1)
    }
    assert len(sizes) == 1
    sizes = {
        payload_size(replace(SAMPLES[ProcessRequest], values=F([value] * length)))
        for value in (0.0, 0.123, -1e300)
    }
    assert len(sizes) == 1


@settings(max_examples=100)
@given(st.integers(-(1 << 63), (1 << 63) - 1))
def test_int_size_does_not_depend_on_its_value(value):
    assert len(codec.encode(value)) == 9
    assert len(codec.encode(m.RevealMask(value, value))) == len(
        codec.encode(m.RevealMask(0, 0))
    )


# ------------------------------------------- metering and blame at the boundary


def test_memoryview_is_metered_by_its_length():
    """A 32 KiB ``memoryview`` used to price at a flat 64 bytes.

    The view rides in a bare tuple payload: a repair mask inside
    ``FinalizeRound`` is declared packed ``bytes``, so decode refuses a view.
    """
    words = bytes(32768)
    as_bytes = payload_size((1, (words,)))
    as_view = payload_size((1, (memoryview(words),)))
    assert as_view == as_bytes > 32768
    network = Network(seed=b"codec-meter")
    network.register("service", {"meter": lambda msg: None})
    network.register("engine", {})
    network.call("engine", "service", "meter", (1, (memoryview(words),)))
    assert network.bytes_delivered == as_view


def test_unencodable_payload_is_blamed_on_who_sent_it():
    network = Network(seed=b"codec-blame")
    ran = []
    network.register("service", {"ask": lambda msg: ran.append(msg) or object()})
    network.register("device", {})
    with pytest.raises(UnencodablePayload) as excinfo:
        network.call("device", "service", "ask", (1, object()))
    assert (excinfo.value.offender, excinfo.value.kind) == ("device", VIOLATION_MALFORMED)
    assert not ran and network.bytes_delivered == 0
    with pytest.raises(UnencodablePayload) as excinfo:
        network.call("device", "service", "ask", 1)
    assert (excinfo.value.offender, excinfo.value.kind) == ("service", VIOLATION_MALFORMED)
    assert len(ran) == 1


class RewriteSubmit(NetworkAdversary):
    """On-path: swap one device's ring payload for a value with no frame."""

    def __init__(self, user_id: str) -> None:
        self.sender = m.client_endpoint(user_id)

    def process(self, message):
        if message.kind == m.KIND_SUBMIT and message.sender == self.sender:
            contribution = replace(message.payload.contribution, ring_payload=object())
            return message.with_payload(replace(message.payload, contribution=contribution))
        return message


def test_unencodable_submission_ends_in_a_verdict():
    """Refused at the wire, the submission is still a recorded violation:
    the round finalizes exactly over the rest, the device quarantined."""
    deployment = Deployment.build(num_users=4, seed=b"wire-tamper")
    users = [user.user_id for user in deployment.corpus.users]
    victim = users[1]
    deployment.network.interpose(RewriteSubmit(victim))
    vectors = deployment.local_vectors()
    report = deployment.engine.run_round(1, users, vectors, deployment.features.bigrams)
    verdict = invariants.judge(report, deployment.codec, vectors)
    assert verdict.outcome == invariants.OUTCOME_EXACT
    assert verdict.offenders == (m.client_endpoint(victim),)
    assert report.outcomes[victim] == OUTCOME_QUARANTINED


class RewriteMaskRequest(NetworkAdversary):
    """On-path: swap one device's quote for a value with no frame."""

    def __init__(self, user_id: str) -> None:
        self.sender = m.client_endpoint(user_id)

    def process(self, message):
        if message.kind == m.KIND_MASK_REQUEST and message.sender == self.sender:
            return message.with_payload(replace(message.payload, quote=object()))
        return message


def test_unencodable_nested_request_is_recorded_once():
    """A mask request is sent from inside the device's provision handler;
    its refusal unwinds through the engine's provision call too, and is
    still one violation, blamed on the device."""
    deployment = Deployment.build(num_users=4, seed=b"wire-tamper")
    users = [user.user_id for user in deployment.corpus.users]
    victim = users[1]
    deployment.network.interpose(RewriteMaskRequest(victim))
    vectors = deployment.local_vectors()
    report = deployment.engine.run_round(1, users, vectors, deployment.features.bigrams)
    verdict = invariants.judge(report, deployment.codec, vectors)
    assert verdict.outcome == invariants.OUTCOME_EXACT
    assert report.outcomes[victim] == OUTCOME_QUARANTINED
    assert [(v.offender, v.kind) for v in report.violations] == [
        (m.client_endpoint(victim), VIOLATION_MALFORMED)
    ]

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
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import codec, invariants
from repro.core.auditor import VerdictMessage
from repro.core.confidential import DetectorDelivery
from repro.core.glimmer import (
    GlimmerConfig,
    KeyDelivery,
    ProcessRequest,
    RoundCheckpoint,
    pack_features,
)
from repro.core.provisioning import SealedRound
from repro.core.remote import AttestedOffer
from repro.core.service import RoundResult
from repro.core.signing import SignedContribution
from repro.core.split import LinkedContribution, PairingOffer
from repro.core.validation import PrivateContext
from repro.crypto.commitments import (
    MaskCommitmentRecord,
    MaskCommitmentSet,
    MaskOpening,
)
from repro.crypto.dh import OAKLEY_GROUP_1, TEST_GROUP
from repro.crypto.masking import MaskShare
from repro.crypto.schnorr import SchnorrPublicKey, SchnorrSignature
from repro.crypto.secagg import PeerShares
from repro.crypto.shamir import ShamirShare
from repro.errors import ProtocolViolation, UnencodablePayload
from repro.experiments.common import Deployment
from repro.network.adversary import EavesdropAdversary, NetworkAdversary
from repro.network.transport import Network
from repro.perf import kernels
from repro.runtime import messages as m, wire
from repro.runtime.protocol import VIOLATION_MALFORMED
from repro.runtime.telemetry import OUTCOME_QUARANTINED
from repro.sgx.attestation import Quote, Report
from repro.workloads.botnet import DetectorWeights, SessionSignals
from repro.workloads.camera import Frame, VideoStream
from repro.workloads.geo import PhotoSubmission, TrackPoint, UserGeoContext
from repro.workloads.keyboard import KeyEvent, KeystrokeTrace
from repro.workloads.reviews import Purchase, Review, UserShoppingContext

OAKLEY_P, TEST_P = OAKLEY_GROUP_1.prime, TEST_GROUP.prime
SIG = SchnorrSignature(
    challenge=3, response=(1 << 160) + 7, commitment=pow(4, 1 << 70, OAKLEY_P),
    group=OAKLEY_GROUP_1,
)
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
    round_id=7, slot=1, num_slots=3, vector_length=2,
    group=TEST_GROUP, root=b"\x09" * 32, hash_commitment=b"\x0a" * 32,
    point=pow(4, (1 << 70) + 3, TEST_P),
)
REPORT = Report(
    b"\x01" * 32, b"\x02" * 32, 2, True, b"\x03" * 64, b"\x04" * 16, b"\x05" * 32
)
SERVICE_KEY = SchnorrPublicKey(OAKLEY_GROUP_1, pow(4, (1 << 700) + 5, OAKLEY_P))
SHARE = ShamirShare(x=3, y=(1 << 250) + 1)
TRACK = [TrackPoint(1.0, 2.0, 3.0), TrackPoint(-1.0, 0.0, 4.5)]
FRAMES = [Frame(0, 0.25, 0.5), Frame(1, 0.5, 0.75)]
BIGRAMS = (("the", "cat"), ("cat", "sat"))
W = kernels.be_words_to_bytes
F = kernels.be_doubles_to_bytes

# One instance of every registered dataclass, by class.
SAMPLES = {
    m.OpenBlinderRound: m.OpenBlinderRound(1, 192, 77, subgroup_size=8),
    m.OpenServiceRound: m.OpenServiceRound(1, 192, 77, 25, subgroup_size=0),
    m.ProvisionMask: m.ProvisionMask(RECORD, 25),
    m.MaskRequest: m.MaskRequest(b"\x05" * 16, None, None, 1, 3),
    m.ContributeCommand: m.ContributeCommand(
        round_id=1,
        features=pack_features(BIGRAMS),
        features_digest=b"\x00" * 32,
    ),
    m.SubmitContribution: m.SubmitContribution(CONTRIBUTION, slot=1),
    m.SubmissionStatusQuery: m.SubmissionStatusQuery(7, b"\x07" * 16),
    m.RevealMask: m.RevealMask(7, 2),
    m.FinalizeRound: m.FinalizeRound(7, kernels.be_words_to_bytes((4, 5)), 1),
    m.CloseRound: m.CloseRound(7),
    SignedContribution: CONTRIBUTION,
    SchnorrSignature: SIG,
    Report: REPORT,
    Quote: QUOTE,
    MaskShare: MaskShare(2, seed=b"\x0b" * 32),
    MaskOpening: MaskOpening(
        share=MaskShare(2, words=kernels.be_words_to_bytes((0, (1 << 64) - 1))),
        salt=b"\x06" * 32, randomizer=9, group=TEST_GROUP,
    ),
    MaskCommitmentRecord: RECORD,
    MaskCommitmentSet: MaskCommitmentSet(
        round_id=7, num_slots=2, vector_length=2,
        group=TEST_GROUP, hash_commitments=(b"\x01" * 32, b"\x02" * 32),
        points=(pow(4, 5, TEST_P), pow(4, 1 << 80, TEST_P)),
        column_sums=kernels.be_words_to_bytes((1, 2, 3, 4, 5, 6, 7, 8)),
        randomizer_sum=11,
    ),
    KeyDelivery: KeyDelivery(b"\x05" * 16, None, None, b"\x08" * 48),
    ProcessRequest: ProcessRequest(
        round_id=7,
        values=kernels.be_doubles_to_bytes((0.5, 0.25)),
        features=pack_features(BIGRAMS),
        blind=False,
        party_index=2,
    ),
    PrivateContext: PrivateContext(
        sentences=[["the", "cat", "sat"]],
        keystroke_trace=KeystrokeTrace([KeyEvent("t", 1.0), KeyEvent("h", 2.5)]),
        geo_context=UserGeoContext("u1", TRACK, b"\x0b" * 8),
        shopping_context=UserShoppingContext("u1", [Purchase("p1", 9.0)]),
        video_stream=VideoStream("u1", FRAMES, "walking"),
        submission=PhotoSubmission("p1", "u1", 1.0, 2.0, 3.0, b"\x0c" * 8, True),
        review=Review("r1", "u1", "p1", 4, 10.0, False),
        trace_commitment=b"\x0e" * 32,
    ),
    RoundResult: RoundResult(
        round_id=7,
        aggregate=np.array([0.5, -1.25]),
        num_contributions=1,
        num_dropouts_repaired=0,
        rejected={"client:x": "bad-signature"},
        accepted=(CONTRIBUTION,),
    ),
    AttestedOffer: AttestedOffer(b"\x05" * 16, pow(4, 12345, OAKLEY_P), QUOTE, OAKLEY_GROUP_1),
    PairingOffer: PairingOffer(dh_public=pow(4, 99, TEST_P), report=REPORT, group=TEST_GROUP),
    SchnorrPublicKey: SERVICE_KEY,
    GlimmerConfig: GlimmerConfig(
        "range:0.0:1.0", SERVICE_KEY, SchnorrPublicKey(TEST_GROUP, 49), b"\x0d" * 32, 0.5
    ),
    RoundCheckpoint: RoundCheckpoint(
        7, ((0, (64, MaskShare(2, seed=b"\x0b" * 32))), (3, (64, MaskShare(2, words=W((4, 5)))))), 2
    ),
    SealedRound: SealedRound(77, 192, 8, b"\x0e" * 32 * 24, b"\x0f" * 32),
    LinkedContribution: LinkedContribution(7, 2, F((0.5, 0.25)), True, 1.0),
    DetectorWeights: DetectorWeights(),
    DetectorDelivery: DetectorDelivery(DetectorWeights(), 12345),
    ShamirShare: SHARE,
    PeerShares: PeerShares(SHARE, ShamirShare(x=3, y=9)),
    VerdictMessage: VerdictMessage("s1", b"\x01" * 32, 1, b"\x02" * 32, b"\x03" * 512),
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


def test_every_field_of_every_registered_class_is_declared():
    for cls in codec.registered().values():
        assert list(codec.declared(cls)) == [f.name for f in fields(cls)], cls


def test_a_class_with_an_undeclared_field_is_refused_by_name():
    @dataclass
    class Half:
        checked: int
        bare: str

    with pytest.raises(TypeError, match=r"Half\.bare declares no check"):
        codec.wire(0xBFFE, checked=int)(Half)
    assert 0xBFFE not in codec.registered()


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


# ------------------------------------------- what does not fit its declaration


def _loose_frame(value) -> bytes:
    """``value``'s class's second tag, then each field as a tagged value."""
    tag = next(tag for tag, cls in codec.registered().items() if cls is type(value))
    items = b"".join(codec.encode(getattr(value, field.name)) for field in fields(value))
    return (tag + codec.LOOSE).to_bytes(2, "big") + items


@pytest.mark.parametrize("cls", list(wire.KINDS.values()), ids=lambda cls: cls.__name__)
def test_the_loose_form_reads_like_the_declared_one(cls):
    value = SAMPLES[cls]
    assert codec.decode(_loose_frame(value)) == value
    assert codec.encode(value)[:2] != _loose_frame(value)[:2]


@pytest.mark.parametrize(
    "value, complaint",
    [
        (m.RevealMask(-1, 2), "RevealMask.round_id out of range [0, 4294967295]"),
        (m.RevealMask(1, True), "RevealMask.party_index must be int, not bool"),
        (m.CloseRound(1.0), "CloseRound.round_id must be int, not float"),
        (replace(SAMPLES[m.SubmitContribution], slot="1"),
         "SubmitContribution.slot must be int, not str"),
        (replace(SAMPLES[m.SubmitContribution],
                 contribution=replace(CONTRIBUTION, nonce=b"\x00")),
         "SignedContribution.nonce must be 16 bytes, not 1"),
        (replace(CONTRIBUTION, blinded=1), "SignedContribution.blinded must be bool, not int"),
        (m.ProvisionMask(replace(RECORD, root=7), 25),
         "MaskCommitmentRecord.root must be bytes, not int"),
    ],
    ids=["round-id-negative", "slot-bool", "round-id-float", "slot-str", "nested-nonce",
         "bool-int", "nested-root-int"],
)
def test_a_field_that_does_not_fit_travels_loose_and_is_refused_as_before(value, complaint):
    """A mistyped or out-of-range field still has a frame — the loose one,
    every field tagged — and decode refuses it with the complaint it gave
    before fields were spelled at their declared widths."""
    frame = codec.encode(value)
    assert frame == _loose_frame(value)
    with pytest.raises(ProtocolViolation) as excinfo:
        codec.decode(frame)
    assert excinfo.value.detail == complaint
    assert excinfo.value.kind == VIOLATION_MALFORMED


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
        len(codec.encode(replace(SAMPLES[ProcessRequest], values=F([value] * length))))
        for value in (0.0, 0.123, -1e300)
    }
    assert len(sizes) == 1


@settings(max_examples=100)
@given(st.integers(-(1 << 63), (1 << 63) - 1))
def test_int_size_does_not_depend_on_its_value(value):
    assert len(codec.encode(value)) == 9
    declared = m.RevealMask(value & codec.MAX_ROUND_ID, value % codec.MAX_PARTIES)
    assert len(codec.encode(declared)) == len(codec.encode(m.RevealMask(0, 0)))


def _shaped_like(check: codec.Check, sample):
    """Values ``check`` admits that its declared width spells as long as
    ``sample``; the sample itself where the field is a tagged value."""
    if isinstance(check, codec.Optional) and sample is not None:
        check = check.check
    if check.spelling() is None or sample is None or getattr(check, "finite", False):
        return st.just(sample)
    if isinstance(check, codec.Int):
        return st.integers(check.lo, check.hi)
    if isinstance(check, codec.Fraction):
        return st.integers(0, check.scale).map(lambda k: k / check.scale)
    if type(sample) is bool:
        return st.booleans()
    if type(sample) is bytes:
        return st.binary(min_size=len(sample), max_size=len(sample))
    if type(sample) is str:
        return st.text("abc", min_size=len(sample), max_size=len(sample))
    return _fields_like(sample)


def _fields_like(sample):
    """``sample`` with every declared field redrawn at its shape."""
    declared = codec.declared(type(sample))
    return st.fixed_dictionaries(
        {
            field.name: _shaped_like(declared.get(field.name, codec.Check()),
                                     getattr(sample, field.name))
            for field in fields(sample)
        }
    ).map(lambda changes: replace(sample, **changes))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(wire.KINDS.values(), key=lambda cls: cls.__name__)).flatmap(
        lambda cls: _fields_like(SAMPLES[cls])
    )
)
def test_declared_fields_frame_at_a_length_their_values_cannot_move(value):
    """Every bus message, its nested records included: redraw each field
    its declaration spells at a width, and the frame keeps its length."""
    assert len(codec.encode(value)) == len(codec.encode(SAMPLES[type(value)]))


# Request frames of a steady round (round 2: every device in session, the
# feature list held) for the k = 77 cohort, by kind: one length each, since
# group values cross at their group's width.  Round ids are u32s, a steady
# contribute command carries neither the list nor its digest, and the
# confidence is its signed u16; before that they were 22, 18, 95, 36, 46,
# 689, 15 and 10.  A submission's blinded words cross at the round's
# width, 20 bits for these 4 parties' values in [0, 1] (255: 77 words in
# 193 bytes), which the open-service and provision-mask commands name in
# a u32 each (22 and 95); 370 while widths went in whole bytes (4 bytes a
# word), 447, 18 and 91 while the width followed the codec's bound
# (5 bytes), and 678 a submission while words were 8 bytes.  Before group values
# crossed at width, a tagged wide int — a commitment point, a signature's
# response — made two lengths, 109/114 and 690/695; before fields were
# spelled at their declared widths: 38, 29, 156/161, 43, 53, 713/718, 16
# and 11.
STEADY_FRAMES = {
    m.KIND_OPEN_BLINDER: {18},
    m.KIND_OPEN_SERVICE: {22},
    m.KIND_PROVISION_MASK: {95},
    m.KIND_MASK_REQUEST: {32},
    m.KIND_CONTRIBUTE: {8},
    m.KIND_SUBMIT: {255},
    m.KIND_FINALIZE: {11},
    m.KIND_CLOSE_ROUND: {6},
}


def test_steady_round_frames_are_pinned():
    deployment = Deployment.build(num_users=4, seed=b"steady-frames")
    assert len(deployment.features) == 77
    eavesdropper = EavesdropAdversary()
    deployment.network.interpose(eavesdropper)
    deployment.honest_round(1)
    deployment.honest_round(2)
    sizes = {}
    for message in eavesdropper.captured:
        if message.kind in wire.KINDS and message.payload.round_id == 2:
            sizes.setdefault(message.kind, set()).add(len(codec.encode(message.payload)))
    assert sizes == STEADY_FRAMES


# ------------------------------------------- metering and blame at the boundary


def test_memoryview_is_metered_by_its_length():
    """A 32 KiB ``memoryview`` used to price at a flat 64 bytes.

    The view rides in a bare tuple payload: a repair mask inside
    ``FinalizeRound`` is declared packed ``bytes``, so decode refuses a view.
    """
    words = bytes(32768)
    as_bytes = len(codec.encode((1, (words,))))
    as_view = len(codec.encode((1, (memoryview(words),))))
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

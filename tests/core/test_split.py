"""Tests for the decomposed (three-enclave) Glimmer."""

from dataclasses import fields, replace
from functools import partial

import pytest

from repro.byzantine import ATTACK_BLINDER_TAMPER_DELIVERY, LyingBlinder
from repro.core.glimmer import GlimmerConfig, ProcessRequest, features_digest, pack_features
from repro.core.provisioning import BlinderProvisioner, ServiceProvisioner
from repro.core.split import SplitGlimmer, build_split_images
from repro import codec
from repro.core.validation import PrivateContext, RoundFacts
from repro.crypto.fixedpoint import ring_width
from repro.crypto.masking import BlindingService
from repro.errors import (
    AttestationError,
    AuthenticationError,
    MaskVerificationError,
    ProtocolError,
    ValidationError,
)
from repro.experiments.common import Deployment
from repro.perf import kernels
from repro.sgx.attestation import report_data_for
from repro.sgx.platform import SgxPlatform
from repro.workloads.reviews import Review
from tests.core.conftest import unblinded

FEATURES = (("a", "b"), ("c", "d"), ("e", "f"))
VALUES = kernels.be_doubles_to_bytes((0.5, 0.25, 1.0))
#: A host answer with a value in every field a predicate here might read.
FULL_RECORD = PrivateContext(
    sentences=[["a", "b"], ["c", "d"]],
    review=Review("r", "u", "p", 5, 1.0, False),
    trace_commitment=b"\x00" * 32,
)


@pytest.fixture
def split_setup(request):
    """A paired split Glimmer with its signing key; ``dp_sigma`` is the
    fixture's indirect parameter (0 without one)."""
    deployment = Deployment.build(
        num_users=1, seed=b"split-tests", provision_clients=False
    )
    config = GlimmerConfig(
        predicate_spec="range:0.0:1.0",
        service_identity=deployment.service_identity.public_key,
        blinder_identity=deployment.blinder_identity.public_key,
        features_digest=features_digest(FEATURES),
        dp_sigma=getattr(request, "param", 0.0),
    )
    images = build_split_images(deployment.vendor, config)
    platform = SgxPlatform(b"split-platform", attestation_service=deployment.attestation)
    split = SplitGlimmer(
        platform, images,
        ocall_handlers={"collect_private_data": lambda fields: PrivateContext()},
    )
    deployment.registry.publish("glimmer-signing", images.signing.mrenclave)
    deployment.registry.publish("glimmer-blinding", images.blinding.mrenclave)
    service_prov = ServiceProvisioner(
        deployment.service_identity, deployment.signing_keypair,
        deployment.attestation, deployment.registry, "glimmer-signing",
        deployment.rng.fork("split-sp"),
    )
    blinding_service = BlindingService(deployment.rng.fork("split-bs"), deployment.codec)
    blinder_prov = BlinderProvisioner(
        deployment.blinder_identity, blinding_service,
        deployment.attestation, deployment.registry, "glimmer-blinding",
        deployment.rng.fork("split-bp"),
    )
    # Provision the signing key.
    session = b"split-sign"
    public = split.signing.ecall("begin_handshake", session)
    quote = platform.quote_enclave(
        split.signing, report_data_for(public.to_bytes(256, "big"))
    )
    split.signing.ecall(
        "install_signing_key",
        service_prov.provision_signing_key(session, public, quote),
    )
    return deployment, platform, split, blinder_prov


def provision_mask(deployment, platform, split, blinder_prov, round_id):
    blinder_prov.open_round(round_id, 1, len(FEATURES))
    session = f"split-mask-{round_id}".encode()
    public = split.blinding.ecall("begin_handshake", session)
    quote = platform.quote_enclave(
        split.blinding, report_data_for(public.to_bytes(256, "big"))
    )
    split.blinding.ecall(
        "install_blinding_mask",
        round_id,
        0,
        blinder_prov.provision_mask(session, public, quote, round_id, 0),
        blinder_prov.round_commitments(round_id).record_for(0),
        ring_width(1),
    )


def test_split_end_to_end(split_setup):
    deployment, platform, split, blinder_prov = split_setup
    provision_mask(deployment, platform, split, blinder_prov, 1)
    request = ProcessRequest(round_id=1, values=VALUES, features=pack_features(FEATURES))
    signed = split.process_contribution(request)
    deployment.signing_keypair.public_key.verify(signed.signed_bytes(), signed.signature)
    mask = blinder_prov.blinding.mask_for(1, 0).row()
    recovered = deployment.codec.decode(
        unblinded(signed.ring_payload, mask, ring_width(1))
    )
    assert list(recovered) == pytest.approx([0.5, 0.25, 1.0])


def test_split_validation_rejects_poison(split_setup):
    deployment, platform, split, blinder_prov = split_setup
    provision_mask(deployment, platform, split, blinder_prov, 1)
    request = ProcessRequest(
        round_id=1, values=kernels.be_doubles_to_bytes((538.0, 0.0, 0.0)), features=pack_features(FEATURES)
    )
    with pytest.raises(ValidationError):
        split.process_contribution(request)


def test_host_cannot_skip_validation(split_setup):
    """The blinding enclave only accepts ciphertext from the validation enclave."""
    deployment, platform, split, blinder_prov = split_setup
    provision_mask(deployment, platform, split, blinder_prov, 1)
    import pickle

    from repro.errors import CryptoError

    forged = pickle.dumps(
        {"round_id": 1, "values": (538.0, 0.0, 0.0), "blind": True, "confidence": 1.0}
    )
    with pytest.raises((AuthenticationError, CryptoError)):
        split.blinding.ecall("blind", forged)


def test_host_cannot_replay_intermediate(split_setup):
    """Sequence numbers stop the host replaying a validated payload."""
    deployment, platform, split, blinder_prov = split_setup
    provision_mask(deployment, platform, split, blinder_prov, 1)
    request = ProcessRequest(round_id=1, values=VALUES, features=pack_features(FEATURES))
    wire1 = split.validation.ecall("validate", request)
    split.blinding.ecall("blind", wire1)
    with pytest.raises(AuthenticationError):
        split.blinding.ecall("blind", wire1)


def test_pairing_rejects_wrong_measurement(split_setup):
    deployment, platform, split, blinder_prov = split_setup
    offer = split.validation.ecall("offer_pairing", "rogue-link")
    with pytest.raises(AttestationError):
        split.signing.ecall(
            "accept_pairing", "rogue-link", offer, b"\x00" * 32
        )


def test_pairing_rejects_cross_platform_report(split_setup):
    deployment, platform, split, blinder_prov = split_setup
    other_platform = SgxPlatform(
        b"other-split-platform", attestation_service=deployment.attestation
    )
    images = build_split_images(
        deployment.vendor,
        GlimmerConfig.decode(split.validation.image.config),
    )
    other = SplitGlimmer(
        other_platform, images,
        ocall_handlers={"collect_private_data": lambda fields: PrivateContext()},
    )
    offer = other.validation.ecall("offer_pairing", "cross-link")
    with pytest.raises(AttestationError):
        split.blinding.ecall(
            "accept_pairing", "cross-link", offer, other.validation.mrenclave
        )


def test_split_uses_three_transition_pairs(split_setup):
    deployment, platform, split, blinder_prov = split_setup
    provision_mask(deployment, platform, split, blinder_prov, 1)
    for enclave in (split.validation, split.blinding, split.signing):
        enclave.meter.reset()
    request = ProcessRequest(round_id=1, values=VALUES, features=pack_features(FEATURES))
    split.process_contribution(request)
    ecall_cost = platform.cost_model.ecall_cycles
    assert split.transition_cycles() == 3 * ecall_cost


def test_split_unblinded_path(split_setup):
    deployment, platform, split, blinder_prov = split_setup
    request = ProcessRequest(
        round_id=9, values=VALUES, features=pack_features(FEATURES), blind=False
    )
    signed = split.process_contribution(request)
    assert not signed.blinded
    assert signed.plain_payload == kernels.be_doubles_to_bytes((0.5, 0.25, 1.0))
    deployment.signing_keypair.public_key.verify(signed.signed_bytes(), signed.signature)


def test_split_rate_limit_uses_monotonic_counter(split_setup):
    """A rate-limited split Glimmer counts across validation-enclave restarts."""
    deployment, platform, split, blinder_prov = split_setup
    from repro.core.glimmer import GlimmerConfig, features_digest
    from repro.core.split import build_split_images
    from repro.core.validation import PrivateContext as PC

    config = GlimmerConfig(
        predicate_spec="chain:range,0.0,1.0+rate,1",
        service_identity=deployment.service_identity.public_key,
        blinder_identity=deployment.blinder_identity.public_key,
        features_digest=features_digest(FEATURES),
    )
    images = build_split_images(deployment.vendor, config)
    rate_platform = SgxPlatform(
        b"rate-split-platform", attestation_service=deployment.attestation
    )
    rated = SplitGlimmer(
        rate_platform, images,
        ocall_handlers={"collect_private_data": lambda fields: PC()},
    )
    request = ProcessRequest(
        round_id=1, values=VALUES, features=pack_features(FEATURES), blind=False
    )
    # First validation passes the rate limit...
    rated.validation.ecall("validate", request)
    # ...a second attempt is rejected...
    with pytest.raises(ValidationError):
        rated.validation.ecall("validate", request)
    # ...and restarting the validation enclave does not reset the count.
    rated.validation.destroy()
    rated.validation = rate_platform.load_enclave(
        images.validation,
        ocall_handlers={"collect_private_data": lambda fields: PC()},
    )
    with pytest.raises(ValidationError):
        rated.validation.ecall("validate", request)


@pytest.mark.parametrize(
    "features",
    [FEATURES, b"a\x00b\x00c", pack_features(FEATURES[:2])],
    ids=["pairs", "odd-word-count", "other-list"],
)
def test_split_validation_holds_the_blob_to_its_digest(split_setup, features):
    """The validation enclave unpacks the list itself: a list that is not
    bytes fails the request's declared checks (``ProtocolError``), and a
    blob that does not unpack or misses the measured digest is refused."""
    deployment, platform, split, blinder_prov = split_setup
    request = ProcessRequest(round_id=1, values=VALUES, features=features)
    refusal = ValidationError if type(features) is bytes else ProtocolError
    with pytest.raises(refusal):
        split.validation.ecall("validate", request)


def test_a_host_record_has_no_field_for_what_the_glimmer_attaches(split_setup):
    """The round, the feature list and the rate-limit counter a predicate
    reads are the Glimmer's own ``RoundFacts``: the private-data record
    has no field for any of them, so a host that answers the ocall with a
    full record on every attempt is still held to the one-per-round
    limit."""
    assert not {f.name for f in fields(RoundFacts)} & set(codec.declared(PrivateContext))
    deployment, platform, split, blinder_prov = split_setup
    config = GlimmerConfig(
        predicate_spec="chain:range,0.0,1.0+rate,1",
        service_identity=deployment.service_identity.public_key,
        blinder_identity=deployment.blinder_identity.public_key,
        features_digest=features_digest(FEATURES),
    )
    rated = SplitGlimmer(
        SgxPlatform(b"claims-split-platform", attestation_service=deployment.attestation),
        build_split_images(deployment.vendor, config),
        ocall_handlers={"collect_private_data": lambda names: FULL_RECORD},
    )
    request = ProcessRequest(
        round_id=1, values=VALUES, features=pack_features(FEATURES), blind=False
    )
    rated.validation.ecall("validate", request)
    with pytest.raises(ValidationError, match="contribution 2 of 1"):
        rated.validation.ecall("validate", request)


def test_split_install_refuses_a_tampered_delivery(split_setup):
    """The split blinding enclave runs the single Glimmer's install: a
    delivered mask that does not open the slot's commitment is refused."""
    deployment, platform, split, blinder_prov = split_setup
    liar = LyingBlinder(blinder_prov, ATTACK_BLINDER_TAMPER_DELIVERY)
    with pytest.raises(MaskVerificationError):
        provision_mask(deployment, platform, split, liar, 1)
    assert liar.lies_told == 1


@pytest.mark.parametrize("split_setup", [0.25], indirect=True)
def test_split_adds_the_measured_dp_noise(split_setup):
    """``dp_sigma`` is part of every component's config; the blinding
    enclave's step adds the noise before the mask."""
    deployment, platform, split, blinder_prov = split_setup
    provision_mask(deployment, platform, split, blinder_prov, 1)
    signed = split.process_contribution(
        ProcessRequest(round_id=1, values=VALUES, features=pack_features(FEATURES))
    )
    noised = deployment.codec.decode(
        unblinded(signed.ring_payload, blinder_prov.blinding.mask_for(1, 0).row(), ring_width(1))
    )
    assert list(noised) != pytest.approx([0.5, 0.25, 1.0])


MISTYPED = [
    pytest.param({"features": 5}, id="features-int"),
    pytest.param({"round_id": "x"}, id="round-id-str"),
    pytest.param({"party_index": "0"}, id="party-index-str"),
    pytest.param({"blind": "yes"}, id="blind-str"),
]


def _single_entry():
    """The single Glimmer's ecall, and an honest request it would sign."""
    deployment = Deployment.build(num_users=2, seed=b"mistyped", sentences_per_user=10)
    user_id = deployment.corpus.users[0].user_id
    deployment.open_round(1, [user_id])
    client = deployment.clients[user_id]
    honest = ProcessRequest(
        round_id=1,
        values=kernels.be_doubles_to_bytes([0.5] * len(deployment.features)),
        features=pack_features(deployment.features.bigrams),
        party_index=client.party_index_for(1),
    )
    return partial(client.glimmer.ecall, "process_contribution"), honest


def _split_entry():
    """The split validation enclave's ecall, and an honest request."""
    deployment = Deployment.build(num_users=1, seed=b"mistyped", provision_clients=False)
    config = GlimmerConfig(
        predicate_spec="range:0.0:1.0",
        service_identity=deployment.service_identity.public_key,
        blinder_identity=deployment.blinder_identity.public_key,
        features_digest=features_digest(FEATURES),
    )
    split = SplitGlimmer(
        SgxPlatform(b"mistyped-split", attestation_service=deployment.attestation),
        build_split_images(deployment.vendor, config),
        ocall_handlers={"collect_private_data": lambda fields: PrivateContext()},
    )
    honest = ProcessRequest(round_id=1, values=VALUES, features=pack_features(FEATURES))
    return partial(split.validation.ecall, "validate"), honest


@pytest.mark.parametrize("mistyped", MISTYPED)
@pytest.mark.parametrize("entry", [_single_entry, _split_entry], ids=["single", "split"])
def test_a_mistyped_request_is_a_protocol_error(entry, mistyped):
    """Both Glimmers hold an in-process request to ProcessRequest's
    declared checks, as a §4.2 decode does: one mistyped field is a
    ProtocolError, never a crash deeper in, and never a signature."""
    call, honest = entry()
    with pytest.raises(ProtocolError, match=r"argument 0 refused: ProcessRequest\."):
        call(replace(honest, **mistyped))
    call(honest)  # the refusal took nothing: not the mask, not the round's count

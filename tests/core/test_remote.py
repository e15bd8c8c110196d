"""Tests for §4.2 Glimmer-as-a-service."""

from dataclasses import replace

import pytest

from repro.core.glimmer import pack_features
from repro.core.remote import AttestedOffer, IoTClient, RemoteGlimmerHost
from repro.core.validation import PrivateContext
from repro.errors import (
    VIOLATION_MALFORMED,
    AttestationError,
    AuthenticationError,
    RefusedAtWire,
)
from repro.experiments.common import Deployment, GLIMMER_NAME
from repro.network.clock import LAN_LATENCY
from repro.network.transport import Network
from repro.network.adversary import EavesdropAdversary
from repro.perf import kernels


@pytest.fixture
def gaas():
    deployment = Deployment.build(
        num_users=2, seed=b"remote-tests", provision_clients=False
    )
    network = Network(seed=b"remote-net", latency=LAN_LATENCY)
    host = RemoteGlimmerHost(
        "host", deployment.image, deployment.attestation, network, b"host-seed"
    )
    host.provision_signing_key(deployment.service_provisioner)
    return deployment, network, host


def make_iot(deployment, host, name="iot-1"):
    return IoTClient(
        name, host, deployment.attestation, deployment.registry,
        GLIMMER_NAME, name.encode(), group=deployment.group,
    )


def test_remote_contribution_end_to_end(gaas):
    deployment, network, host = gaas
    deployment.blinder_provisioner.open_round(1, 1, len(deployment.features))
    deployment.service.open_round(1, 1)
    host.provision_mask(deployment.blinder_provisioner, 1, 0)
    client = make_iot(deployment, host)
    values = [0.5] * len(deployment.features)
    signed = client.contribute(1, values, pack_features(deployment.features.bigrams))
    assert deployment.service.submit(1, signed, 0)


def test_remote_contribution_is_blinded_on_the_wire(gaas):
    deployment, network, host = gaas
    deployment.blinder_provisioner.open_round(1, 1, len(deployment.features))
    deployment.service.open_round(1, 1)
    host.provision_mask(deployment.blinder_provisioner, 1, 0)
    spy = EavesdropAdversary()
    network.interpose(spy)
    client = make_iot(deployment, host)
    values = [0.25] * len(deployment.features)
    signed = client.contribute(1, values, pack_features(deployment.features.bigrams))
    assert signed.blinded
    # Everything the host/network saw for the contribution is ciphertext.
    for payload in spy.captured_payloads("remote-contribution"):
        __, __, ciphertext = payload
        assert isinstance(ciphertext, bytes)
        encoded = bytes(deployment.codec.encode(values)[0].to_bytes(8, "big"))
        assert encoded not in ciphertext


def test_malicious_host_fails_attestation(gaas):
    deployment, network, host = gaas
    # The host swaps in an offer whose quote does not bind the DH value.
    genuine_offer = AttestedOffer(*host.handshake_request())

    def bad_attest(message):
        return AttestedOffer(
            session_id=genuine_offer.session_id,
            # a substituted key, still in the group, so only the quote can refuse it
            dh_public=genuine_offer.dh_public * 4 % host.group.prime,
            quote=genuine_offer.quote,
            group=host.group,
        )

    network.add_handler("host", "attest-glimmer", bad_attest)
    client = make_iot(deployment, host, "iot-victim")
    with pytest.raises(AttestationError):
        client.contribute(
            1, [0.5] * len(deployment.features), pack_features(deployment.features.bigrams)
        )


def test_junk_quote_is_refused_at_the_wire(gaas):
    """The offer's declared checks run as it crosses: a host answering
    with a junk quote is a malformed message, blamed on the host."""
    deployment, network, host = gaas
    genuine_offer = AttestedOffer(*host.handshake_request())
    network.add_handler(
        "host", "attest-glimmer", lambda message: replace(genuine_offer, quote=b"junk")
    )
    client = make_iot(deployment, host, "iot-junk")
    with pytest.raises(RefusedAtWire) as excinfo:
        client.contribute(
            1, [0.5] * len(deployment.features), pack_features(deployment.features.bigrams)
        )
    assert (excinfo.value.offender, excinfo.value.kind) == ("host", VIOLATION_MALFORMED)


def test_manually_tampered_payload_rejected(gaas):
    deployment, network, host = gaas
    deployment.blinder_provisioner.open_round(1, 1, len(deployment.features))
    host.provision_mask(deployment.blinder_provisioner, 1, 0)
    offer = AttestedOffer(*host.handshake_request())
    # Build the encrypted request by hand, flip a byte, deliver.
    from repro.crypto.cipher import AuthenticatedCipher
    from repro.crypto.dh import DHKeyPair
    from repro.crypto.drbg import HmacDrbg
    from repro.core.glimmer import ProcessRequest, _encode_remote_payload

    rng = HmacDrbg(b"tamper-iot")
    keypair = DHKeyPair.generate(deployment.group, rng)
    key = keypair.derive_key(offer.dh_public, "glimmer-as-a-service")
    cipher = AuthenticatedCipher(key)
    request = ProcessRequest(
        round_id=1,
        values=kernels.be_doubles_to_bytes([0.5] * len(deployment.features)),
        features=pack_features(deployment.features.bigrams),
    )
    payload = _encode_remote_payload(request, PrivateContext())
    box = cipher.encrypt(rng.generate(16), payload, associated_data=offer.session_id)
    wire = bytearray(box.to_bytes())
    wire[-1] ^= 0x01
    with pytest.raises(AuthenticationError):
        host.glimmer.ecall(
            "process_remote", offer.session_id, keypair.public, bytes(wire)
        )


def test_session_cannot_be_reused(gaas):
    deployment, network, host = gaas
    deployment.blinder_provisioner.open_round(1, 2, len(deployment.features))
    deployment.service.open_round(1, 2)
    client = make_iot(deployment, host, "iot-reuse")
    values = [0.5] * len(deployment.features)
    client.provision_mask(deployment.blinder_provisioner, 1, 0)
    client.contribute(1, values, pack_features(deployment.features.bigrams))
    # A second contribution opens a fresh session automatically and succeeds
    # (consuming the second party's mask on the shared remote Glimmer).
    client.provision_mask(deployment.blinder_provisioner, 1, 1)
    signed = client.contribute(1, values, pack_features(deployment.features.bigrams))
    assert signed.blinded


def test_remote_validation_still_enforced(gaas):
    """The remote path runs the same predicate: 538 is rejected remotely too."""
    from repro.errors import ValidationError

    deployment, network, host = gaas
    deployment.blinder_provisioner.open_round(1, 1, len(deployment.features))
    host.provision_mask(deployment.blinder_provisioner, 1, 0)
    client = make_iot(deployment, host, "iot-evil")
    bad = [538.0] + [0.0] * (len(deployment.features) - 1)
    with pytest.raises(ValidationError):
        client.contribute(1, bad, pack_features(deployment.features.bigrams))


@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param("features", 5, id="features-int"),
        pytest.param("features", ((1, 2, 3),), id="features-triple"),
        pytest.param("features", "the\x00cat", id="features-str"),
        pytest.param("round_id", "x", id="round-id-str"),
        pytest.param("party_index", "0", id="party-index-str"),
    ],
)
def test_a_mistyped_remote_request_is_refused(gaas, field, value):
    """A remote client's request is held to ``ProcessRequest``'s declared
    checks as it is decoded inside the Glimmer: a mistyped field is a
    refusal, never a ``TypeError``, ``ValueError`` or ``CryptoError``
    from deeper in the enclave."""
    from repro.errors import ProtocolError, ValidationError

    with pytest.raises((ProtocolError, ValidationError)):
        _process_remote(gaas, {field: value}, PrivateContext())


def test_a_remote_context_with_a_mistyped_field_is_refused(gaas):
    """The device's private context is held to ``PrivateContext``'s
    declared checks as it is decoded: a photo that is not a
    ``PhotoSubmission`` is a ``ProtocolError``, never reaching a
    predicate."""
    from repro.errors import ProtocolError

    with pytest.raises(ProtocolError, match="malformed remote contribution payload"):
        _process_remote(gaas, {}, PrivateContext(submission=5))


def _process_remote(gaas, mistyped: dict, context: PrivateContext):
    """A §4.2 call whose honest request has ``mistyped`` fields swapped in,
    sent with ``context`` over a freshly attested channel."""
    from repro.core.glimmer import ProcessRequest, _encode_remote_payload
    from repro.crypto.cipher import AuthenticatedCipher
    from repro.crypto.dh import DHKeyPair
    from repro.crypto.drbg import HmacDrbg

    deployment, network, host = gaas
    deployment.blinder_provisioner.open_round(1, 1, len(deployment.features))
    host.provision_mask(deployment.blinder_provisioner, 1, 0)
    offer = AttestedOffer(*host.handshake_request())
    rng = HmacDrbg(b"mistyped-iot")
    keypair = DHKeyPair.generate(deployment.group, rng)
    cipher = AuthenticatedCipher(keypair.derive_key(offer.dh_public, "glimmer-as-a-service"))
    request = ProcessRequest(
        round_id=1,
        values=kernels.be_doubles_to_bytes([0.5] * len(deployment.features)),
        features=pack_features(deployment.features.bigrams),
    )
    payload = _encode_remote_payload(replace(request, **mistyped), context)
    box = cipher.encrypt(rng.generate(16), payload, associated_data=offer.session_id)
    return host.glimmer.ecall(
        "process_remote", offer.session_id, keypair.public, box.to_bytes()
    )

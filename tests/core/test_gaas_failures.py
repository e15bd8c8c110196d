"""Failure injection on the Glimmer-as-a-service path (§4.2).

The remote deployment adds a hostile network between the client and its
Glimmer; these tests verify each failure lands where the design says:
drops surface as transport errors, replays die inside the enclave (the
handshake session is single-use), and eavesdroppers hold only ciphertext.
"""

import pytest

from repro.core.glimmer import pack_features
from repro.core.remote import IoTClient, RemoteGlimmerHost
from repro.errors import NetworkError, ProtocolError
from repro.experiments.common import Deployment, GLIMMER_NAME
from repro.network.adversary import DropAdversary, EavesdropAdversary
from repro.network.clock import LAN_LATENCY
from repro.network.transport import Network


@pytest.fixture
def gaas():
    deployment = Deployment.build(
        num_users=2, seed=b"gaas-failure-tests", provision_clients=False
    )
    network = Network(seed=b"gaas-failure-net", latency=LAN_LATENCY)
    host = RemoteGlimmerHost(
        "host", deployment.image, deployment.attestation, network, b"host"
    )
    host.provision_signing_key(deployment.service_provisioner)
    deployment.blinder_provisioner.open_round(1, 2, len(deployment.features))
    deployment.service.open_round(1, 2)
    client = IoTClient(
        "iot", host, deployment.attestation, deployment.registry,
        GLIMMER_NAME, b"iot", group=deployment.group,
    )
    return deployment, network, host, client


def _contribute(deployment, client, party_index=0):
    client.provision_mask(deployment.blinder_provisioner, 1, party_index)
    return client.contribute(
        1, [0.5] * len(deployment.features), pack_features(deployment.features.bigrams)
    )


def test_dropped_attestation_request_surfaces(gaas):
    deployment, network, host, client = gaas
    network.interpose(DropAdversary(drop_kinds={"attest-glimmer"}))
    with pytest.raises(NetworkError):
        _contribute(deployment, client)


def test_dropped_contribution_surfaces(gaas):
    deployment, network, host, client = gaas
    network.interpose(DropAdversary(drop_kinds={"remote-contribution"}))
    with pytest.raises(NetworkError):
        _contribute(deployment, client)


def test_recovery_after_transient_drop(gaas):
    """After the network heals, a fresh attempt succeeds (new session)."""
    deployment, network, host, client = gaas
    drop = DropAdversary(drop_kinds={"remote-contribution"})
    network.interpose(drop)
    with pytest.raises(NetworkError):
        _contribute(deployment, client, party_index=0)
    network.clear_adversaries()
    signed = _contribute(deployment, client, party_index=1)
    assert deployment.service.submit(1, signed, 1)


def test_replayed_ciphertext_rejected_by_enclave(gaas):
    """The handshake session is consumed on first use; a replay of the
    captured ciphertext cannot be decrypted under any session."""
    deployment, network, host, client = gaas
    spy = EavesdropAdversary()
    network.interpose(spy)
    _contribute(deployment, client, party_index=0)
    session_id, dh_public, ciphertext = spy.captured_payloads(
        "remote-contribution"
    )[0]
    with pytest.raises(ProtocolError):
        host.glimmer.ecall("process_remote", session_id, dh_public, ciphertext)


def test_eavesdropper_never_sees_plaintext_values(gaas):
    deployment, network, host, client = gaas
    spy = EavesdropAdversary()
    network.interpose(spy)
    value = 0.8125  # exactly representable; encoded form is predictable
    client.provision_mask(deployment.blinder_provisioner, 1, 0)
    client.contribute(
        1, [value] * len(deployment.features), pack_features(deployment.features.bigrams)
    )
    encoded_value = deployment.codec.encode([value])[0].to_bytes(8, "big")
    for message in spy.captured:
        payload = message.payload
        if isinstance(payload, tuple) and len(payload) == 3:
            assert encoded_value not in payload[2]


def test_session_ids_never_reused_by_host(gaas):
    deployment, network, host, client = gaas
    offers = {host.handshake_request()[0] for __ in range(10)}
    assert len(offers) == 10

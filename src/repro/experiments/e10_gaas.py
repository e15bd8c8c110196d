"""E10 — §4.2: Glimmer-as-a-service across host placements.

A fleet of TEE-less IoT clients contributes through remote Glimmer hosts at
the three placements the paper names — "another device owned by the same
user (such as a set-top box ...), a local group of people ... (such as
their University ...), or even a well-known entity ... (such as the EFF)" —
priced as device-local, LAN, and WAN links respectively.

Per placement we report: mean end-to-end contribution latency (simulated),
acceptance by the service, and the security check that motivates the whole
design: a *malicious* host running non-Glimmer software fails the client's
attestation check, so no private data is ever sent to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import Table
from repro.core.remote import IoTClient, RemoteGlimmerHost
from repro.core.validation import PrivateContext
from repro.errors import AttestationError
from repro.experiments.common import Deployment
from repro.network.clock import LAN_LATENCY, LOCAL_LATENCY, WAN_LATENCY
from repro.network.transport import Network
from repro.sgx.measurement import EnclaveImage
from repro.sgx.enclave import EnclaveProgram, ecall

PLACEMENTS = (
    ("set-top box (same home)", LOCAL_LATENCY),
    ("university server (LAN)", LAN_LATENCY),
    ("EFF (WAN)", WAN_LATENCY),
)


class NotAGlimmerProgram(EnclaveProgram):
    """What a malicious host substitutes: measures differently, so it fails vetting."""

    @ecall
    def begin_handshake(self, session_id: bytes) -> int:
        return 4  # a fixed, bogus "handshake value"


@dataclass
class GaasResult:
    rows: list
    malicious_host_blocked: bool

    def table(self) -> Table:
        table = Table(
            "E10 (§4.2): Glimmer-as-a-service — placement latency and safety",
            [
                "placement",
                "clients",
                "mean latency (ms)",
                "p95 latency (ms)",
                "all accepted",
            ],
        )
        for row in self.rows:
            table.add_row(*row)
        table.add_row(
            "malicious host (wrong software)", "-", "-", "-",
            self.malicious_host_blocked,
        )
        return table


def run(num_clients: int = 6, seed: bytes = b"e10") -> GaasResult:
    deployment = Deployment.build(num_users=4, seed=seed, provision_clients=False)
    features = deployment.features
    vectors = deployment.local_vectors()
    a_vector = list(next(iter(vectors.values())))

    rows = []
    round_counter = 0
    for placement, latency in PLACEMENTS:
        round_counter += 1
        network = Network(seed=seed + placement.encode(), latency=latency)
        host = RemoteGlimmerHost(
            "host", deployment.image, deployment.attestation, network,
            seed + b":host:" + placement.encode(),
        )
        host.provision_signing_key(deployment.service_provisioner)
        deployment.blinder_provisioner.open_round(
            round_counter, num_clients, len(features)
        )
        deployment.service.open_round(round_counter, num_clients)
        latencies = []
        accepted = 0
        for index in range(num_clients):
            host.provision_mask(deployment.blinder_provisioner, round_counter, index)
            client = IoTClient(
                f"iot-{placement}-{index}", network, deployment.attestation,
                deployment.registry, "keyboard-glimmer",
                seed + f":iot-{index}".encode(), group=deployment.group,
            )
            start = network.clock.now_ms()
            signed = client.contribute_via(
                "host", round_counter, a_vector, features.bigrams,
                PrivateContext(), party_index=index,
            )
            latencies.append(network.clock.now_ms() - start)
            accepted += deployment.service.submit(round_counter, signed)
        rows.append(
            (
                placement,
                num_clients,
                float(np.mean(latencies)),
                float(np.percentile(latencies, 95)),
                accepted == num_clients,
            )
        )

    # Malicious host: runs different software; client must refuse to send data.
    network = Network(seed=seed + b"mal", latency=LAN_LATENCY)
    fake_image = EnclaveImage.build(
        NotAGlimmerProgram, deployment.vendor, name="keyboard-glimmer"
    )
    from repro.sgx.platform import SgxPlatform
    from repro.core.client import attested_handshake
    from repro.core.remote import AttestedOffer

    platform = SgxPlatform(seed + b":malhost", attestation_service=deployment.attestation)
    fake_enclave = platform.load_enclave(fake_image)

    def malicious_attest(message):
        return AttestedOffer(*attested_handshake(platform, fake_enclave, b"x"))

    network.register("host", {"attest-glimmer": malicious_attest})
    client = IoTClient(
        "iot-victim", network, deployment.attestation, deployment.registry,
        "keyboard-glimmer", seed + b":victim", group=deployment.group,
    )
    try:
        client.contribute_via(
            "host", 99, a_vector, features.bigrams, PrivateContext()
        )
        blocked = False
    except AttestationError:
        blocked = True
    return GaasResult(rows=rows, malicious_host_blocked=blocked)

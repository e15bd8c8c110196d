"""E10 — §4.2: Glimmer-as-a-service across host placements.

A fleet of TEE-less IoT clients contributes through remote Glimmer hosts at
the three placements the paper names — "another device owned by the same
user (such as a set-top box ...), a local group of people ... (such as
their University ...), or even a well-known entity ... (such as the EFF)" —
priced as device-local, LAN, and WAN links respectively.

Each placement is one engine round on a single deployment's bus: the host
joins it, each device↔host link gets the placement's latency, and the
round is judged like every other.  Per placement we report the mean and
p95 of each device's host latency (simulated: from its attestation
request to its signed submission), and whether every device's
contribution was accepted.  The last row is the security check that
motivates the whole design: a *malicious* host running non-Glimmer
software fails the client's attestation check, so no private data is
ever sent to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import Table
from repro.core.client import attested_handshake
from repro.core.glimmer import pack_features
from repro.core.remote import AttestedOffer, RemoteGlimmerHost
from repro.errors import AttestationError
from repro.experiments.common import GLIMMER_NAME, Deployment
from repro.invariants import Verdict, judge
from repro.network.adversary import EavesdropAdversary
from repro.network.clock import LAN_LATENCY, LOCAL_LATENCY, WAN_LATENCY
from repro.runtime.messages import KIND_SUBMIT, client_endpoint
from repro.sgx.enclave import EnclaveProgram, ecall
from repro.sgx.measurement import EnclaveImage

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
    verdicts: list[Verdict]  # one per placement, judged by repro.invariants

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


def make_impostor_host(deployment: Deployment, host_name: str) -> RemoteGlimmerHost:
    """A host on the bus that answers attestation for its own software: an
    enclave that measures differently, so no vetted client trusts it."""
    host = deployment.make_host(host_name)
    impostor = host.platform.load_enclave(
        EnclaveImage.build(NotAGlimmerProgram, deployment.vendor, name=GLIMMER_NAME)
    )
    deployment.network.add_handler(
        host_name,
        "attest-glimmer",
        lambda message: AttestedOffer(
            *attested_handshake(host.platform, impostor, b"x"), host.group
        ),
    )
    return host


def _host_latency_ms(captured, device_id: str) -> float:
    """From the device's attestation request to its signed submission,
    as an on-path observer timestamps them (the first of each kind)."""
    name = client_endpoint(device_id)
    sent = {
        message.kind: message.sent_at_ms
        for message in reversed(captured)
        if message.sender == name
    }
    return sent[KIND_SUBMIT] - sent["attest-glimmer"]


def run(num_clients: int = 6, seed: bytes = b"e10") -> GaasResult:
    deployment = Deployment.build(num_users=4, seed=seed, provision_clients=False)
    features = deployment.features
    a_vector = list(next(iter(deployment.local_vectors().values())))
    observer = EavesdropAdversary()
    deployment.network.interpose(observer)

    rows, verdicts = [], []
    for round_id, (placement, latency) in enumerate(PLACEMENTS, start=1):
        host = deployment.make_host(f"host:{placement}")
        devices = [f"iot-{placement}-{index}" for index in range(num_clients)]
        for device_id in devices:
            deployment.make_iot_client(device_id, host)
            deployment.network.set_link_latency(
                client_endpoint(device_id), host.client_id, latency
            )
        vectors = dict.fromkeys(devices, a_vector)
        report = deployment.engine.run_round(round_id, devices, vectors, features.bigrams)
        verdicts.append(judge(report, deployment.codec, vectors))
        latencies = [_host_latency_ms(observer.captured, d) for d in devices]
        rows.append(
            (
                placement,
                num_clients,
                float(np.mean(latencies)),
                float(np.percentile(latencies, 95)),
                report.survivors == tuple(devices),
            )
        )

    # Malicious host: runs different software; the client must refuse to
    # send it anything, so this arm submits nothing.
    host = make_impostor_host(deployment, "host:malicious")
    victim = deployment.make_iot_client("iot-victim", host)
    try:
        victim.contribute(99, a_vector, pack_features(features.bigrams))
        blocked = False
    except AttestationError:
        blocked = True
    return GaasResult(rows=rows, malicious_host_blocked=blocked, verdicts=verdicts)

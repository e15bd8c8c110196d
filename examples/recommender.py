#!/usr/bin/env python3
"""The recommender example: reviews corroborated by private purchase history.

§2 of the paper: "recommender services learn similarities among products
from individual users' registered likes, dislikes, and shopping habits, but
detecting spurious reviews requires access to individual users' purchasing
history."  The history is exactly the data users least want to upload.

Here the contribution is a review (public by intent); the Glimmer's
purchase-corroboration predicate checks, on-device, that the reviewed
product was actually bought *before* the review was written.  Shill reviews
of never-purchased products are rejected without the service — or anyone —
seeing a single purchase record.

Run:  python examples/recommender.py
"""

from repro.core.client import ClientDevice, LocalDataStore
from repro.core.glimmer import GlimmerConfig, build_glimmer_image, features_digest, pack_features
from repro.core.provisioning import ServiceProvisioner, VettingRegistry
from repro.core.validation import PrivateContext
from repro.crypto.dh import TEST_GROUP
from repro.crypto.drbg import HmacDrbg
from repro.crypto.schnorr import SchnorrKeyPair
from repro.errors import ValidationError
from repro.sgx.attestation import AttestationService
from repro.sgx.measurement import VendorKey
from repro.workloads.reviews import ReviewWorkload

# The signed values: the star rating (normalized) — tiny but real payload.
REVIEW_FEATURES = (("review", "rating"),)


def main() -> None:
    rng = HmacDrbg(b"recommender-example")
    workload = ReviewWorkload.generate(
        8, rng.fork("reviews"), reviews_per_user=3, spurious_fraction=0.3
    )
    spurious = sum(r.is_spurious for r in workload.reviews)
    print(f"{len(workload.reviews)} reviews from {len(workload.contexts)} "
          f"shoppers ({spurious} shill reviews planted)\n")

    ias = AttestationService(b"shop-ias")
    vendor = VendorKey.generate(rng.fork("vendor"))
    service_identity = SchnorrKeyPair.generate(rng.fork("svc"), TEST_GROUP)
    signing = SchnorrKeyPair.generate(rng.fork("sign"), TEST_GROUP)
    blinder_identity = SchnorrKeyPair.generate(rng.fork("blind"), TEST_GROUP)
    config = GlimmerConfig(
        predicate_spec="purchase",
        service_identity=service_identity.public_key,
        blinder_identity=blinder_identity.public_key,
        features_digest=features_digest(REVIEW_FEATURES),
    )
    image = build_glimmer_image(vendor, config, name="shop-glimmer")
    registry = VettingRegistry()
    registry.publish("shop-glimmer", image.mrenclave)
    provisioner = ServiceProvisioner(
        service_identity, signing, ias, registry, "shop-glimmer", rng.fork("sp")
    )

    clients = {}
    for user_id, context in workload.contexts.items():
        client = ClientDevice(
            user_id, image, ias, seed=user_id.encode(),
            data=LocalDataStore(PrivateContext(shopping_context=context)),
        )
        client.provision_signing_key(provisioner)
        clients[user_id] = client

    endorsed = rejected = misclassified = 0
    for review in workload.reviews:
        clients[review.user_id].data.private.review = review
        try:
            signed = clients[review.user_id].contribute(
                round_id=1,
                values=[review.rating / 5.0],
                features=pack_features(REVIEW_FEATURES),
                blind=False,
            )
            assert signing.public_key.is_valid(signed.signed_bytes(), signed.signature)
            endorsed += 1
            misclassified += review.is_spurious
            verdict = "endorsed"
        except ValidationError as exc:
            rejected += 1
            misclassified += not review.is_spurious
            verdict = f"rejected ({str(exc)[:52]}…)"
        tag = "SHILL " if review.is_spurious else "honest"
        print(f"  [{tag}] {review.review_id} ({review.product_id}, "
              f"{review.rating}★): {verdict}")

    print(f"\nendorsed {endorsed}, rejected {rejected}, "
          f"misclassified {misclassified} of {len(workload.reviews)}")
    total_purchases = sum(len(c.purchases) for c in workload.contexts.values())
    print(f"purchase records that never left any device: {total_purchases}")


if __name__ == "__main__":
    main()

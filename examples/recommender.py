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

from repro.core.client import LocalDataStore
from repro.core.glimmer import pack_features
from repro.core.validation import PrivateContext
from repro.crypto.drbg import HmacDrbg
from repro.errors import ValidationError
from repro.experiments.common import Deployment
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

    deployment = Deployment.build(
        seed=b"recommender-example", predicate_spec="purchase",
        provision_clients=False, features=REVIEW_FEATURES,
    )
    signing = deployment.signing_keypair
    clients = {
        user_id: deployment.make_client(
            user_id, data=LocalDataStore(PrivateContext(shopping_context=context))
        )
        for user_id, context in workload.contexts.items()
    }

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

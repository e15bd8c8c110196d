"""Purchase histories and reviews for the recommender example.

§2: "recommender services learn similarities among products from individual
users' registered likes, dislikes, and shopping habits, but detecting
spurious reviews requires access to individual users' purchasing history."

The generator produces per-user purchase histories (private) and review
submissions (contributions); spurious reviews — reviews of products never
purchased, or burst-posted shill reviews — are labeled ground truth for the
purchase-corroboration predicate used in the recommender example.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codec import TIME_MS, Bool, ListOf, Str, wire
from repro.crypto.drbg import HmacDrbg
from repro.errors import ConfigurationError

_PRODUCTS = tuple(f"product-{i:03d}" for i in range(40))


@wire(0x8209, product_id=Str, timestamp_ms=TIME_MS)
@dataclass(frozen=True)
class Purchase:
    """A record in the user's private purchase history."""

    product_id: str
    timestamp_ms: float


@wire(
    0x820A, review_id=Str, user_id=Str, product_id=Str, rating=int, posted_at_ms=TIME_MS,
    is_spurious=Bool,
)
@dataclass(frozen=True)
class Review:
    """A submitted review (the contribution)."""

    review_id: str
    user_id: str
    product_id: str
    rating: int  # 1..5
    posted_at_ms: float
    is_spurious: bool  # ground truth


@wire(0x820B, user_id=Str, purchases=ListOf(Purchase))
@dataclass
class UserShoppingContext:
    """Private validation data: the purchase history."""

    user_id: str
    purchases: list[Purchase]

    def purchased(self, product_id: str) -> bool:
        return any(p.product_id == product_id for p in self.purchases)

    def purchase_time(self, product_id: str) -> float | None:
        for p in self.purchases:
            if p.product_id == product_id:
                return p.timestamp_ms
        return None


@dataclass
class ReviewWorkload:
    """Users, histories, and a mixed bag of honest/spurious reviews."""

    contexts: dict[str, UserShoppingContext] = field(default_factory=dict)
    reviews: list[Review] = field(default_factory=list)

    @classmethod
    def generate(
        cls,
        num_users: int,
        rng: HmacDrbg,
        purchases_per_user: int = 8,
        reviews_per_user: int = 3,
        spurious_fraction: float = 0.25,
    ) -> "ReviewWorkload":
        if num_users < 1:
            raise ConfigurationError("need at least one user")
        if not 0.0 <= spurious_fraction <= 1.0:
            raise ConfigurationError("spurious_fraction must be in [0, 1]")
        workload = cls()
        review_counter = 0
        for index in range(num_users):
            user_id = f"shopper-{index:04d}"
            user_rng = rng.fork(user_id)
            now = 0.0
            purchases = []
            for __ in range(purchases_per_user):
                now += 86_400_000.0 * (0.5 + user_rng.uniform() * 3.0)
                purchases.append(
                    Purchase(product_id=user_rng.choice(_PRODUCTS), timestamp_ms=now)
                )
            context = UserShoppingContext(user_id=user_id, purchases=purchases)
            workload.contexts[user_id] = context
            for __ in range(reviews_per_user):
                review_id = f"review-{review_counter:05d}"
                review_counter += 1
                spurious = user_rng.uniform() < spurious_fraction
                if spurious:
                    unpurchased = [
                        p for p in _PRODUCTS if not context.purchased(p)
                    ]
                    product = user_rng.choice(unpurchased)
                    posted = now + user_rng.uniform() * 86_400_000.0
                    rating = 5  # shill reviews gush
                else:
                    purchase = user_rng.choice(purchases)
                    product = purchase.product_id
                    posted = purchase.timestamp_ms + (
                        3_600_000.0 + user_rng.uniform() * 86_400_000.0 * 14
                    )
                    rating = 1 + user_rng.randint(5)
                workload.reviews.append(
                    Review(
                        review_id=review_id,
                        user_id=user_id,
                        product_id=product,
                        rating=rating,
                        posted_at_ms=posted,
                        is_spurious=spurious,
                    )
                )
        return workload

    def labels(self) -> dict[str, bool]:
        return {r.review_id: r.is_spurious for r in self.reviews}

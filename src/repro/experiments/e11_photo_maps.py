"""E11 — §1's photos-for-maps example: public contributions, private validation.

"Even if the actual user contributions are not themselves private, e.g.,
users photos associated with a location on a mapping service, validating
those contributions might require access by service code to otherwise
private data (e.g., location tracking through GPS and ambient WiFi, to
validate that the user did go to a claimed location)."

Here the contribution (the photo) is *not* blinded — it is meant to be
shared — but the validation data (the user's GPS track and camera
fingerprint) never leaves the device.  The Glimmer runs the geo predicate
and signs only corroborated photos; the photo digest rides inside the
signed values so the endorsement is bound to the photo.

Reported per corroboration radius: spoof-rejection rate, honest-acceptance
rate, and the privacy delta (track points that would otherwise ship to the
service).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import Table
from repro.core.client import LocalDataStore
from repro.core.glimmer import pack_features
from repro.core.validation import PrivateContext
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashing import hash_bytes
from repro.errors import ValidationError
from repro.experiments.common import Deployment
from repro.workloads.geo import GeoWorkload, PhotoSubmission

# The "feature space" for photos: eight photo-digest bytes scaled to [0, 1],
# binding the endorsement to the photo content while passing a range check.
PHOTO_FEATURES = tuple((f"photo-digest-{i}", "byte") for i in range(8))


def photo_digest_values(photo: PhotoSubmission) -> list[float]:
    digest = hash_bytes(
        "photo-content",
        photo.photo_id.encode("utf-8") + photo.camera_fingerprint,
    )
    return [b / 255.0 for b in digest[:8]]


@dataclass
class PhotoMapsResult:
    rows: list

    def table(self) -> Table:
        table = Table(
            "E11 (§1): photos-for-maps — geo corroboration inside the Glimmer",
            [
                "radius (m)",
                "photos",
                "spoof rejection",
                "honest acceptance",
                "track points kept private",
            ],
        )
        for row in self.rows:
            table.add_row(*row)
        return table


def run(
    num_users: int = 8,
    radii=(10.0, 25.0, 80.0),
    seed: bytes = b"e11",
) -> PhotoMapsResult:
    rng = HmacDrbg(seed, personalization="e11")
    workload = GeoWorkload.generate(num_users, rng.fork("geo"))

    rows = []
    for radius in radii:
        deployment = Deployment.build(
            seed=seed + f":{radius}".encode(),
            predicate_spec=f"geo:{radius}",
            provision_clients=False,
            features=PHOTO_FEATURES,
        )
        for user_id, context in workload.contexts.items():
            deployment.make_client(
                user_id, data=LocalDataStore(PrivateContext(geo_context=context))
            )

        spoofed_total = honest_total = 0
        spoofed_rejected = honest_accepted = 0
        for photo in workload.submissions:
            client = deployment.clients[photo.user_id]
            client.data.private.submission = photo
            try:
                signed = client.contribute(
                    round_id=1,
                    values=photo_digest_values(photo),
                    features=pack_features(PHOTO_FEATURES),
                    blind=False,
                )
                accepted = deployment.signing_keypair.public_key.is_valid(
                    signed.signed_bytes(), signed.signature
                )
            except ValidationError:
                accepted = False
            if photo.is_spoofed:
                spoofed_total += 1
                spoofed_rejected += not accepted
            else:
                honest_total += 1
                honest_accepted += accepted
        track_points = sum(len(c.track) for c in workload.contexts.values())
        rows.append(
            (
                radius,
                len(workload.submissions),
                spoofed_rejected / max(1, spoofed_total),
                honest_accepted / max(1, honest_total),
                track_points,
            )
        )
    return PhotoMapsResult(rows=rows)

"""GPS tracks, photos, and spoofers for the photos-for-maps example.

§1/§3: "users photos associated with a location on a mapping service ...
validating those contributions might require access by service code to
otherwise private data (e.g., location tracking through GPS and ambient
WiFi, to validate that the user did go to a claimed location)."

The generator produces, per user:

* a **GPS track** — a timestamped random walk over a city grid (private);
* a **camera fingerprint** — stable per device (private);
* **photo submissions** — claimed location + timestamp + fingerprint.

Honest submissions are taken at a point actually on the track; spoofed ones
claim a location the user never visited, or carry a fingerprint from a
different device (stolen/stock photo).  Ground truth labels let experiment
E11 score the geo-corroboration predicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.codec import TIME_MS, Bool, ListOf, Real, Str, wire
from repro.crypto.drbg import HmacDrbg
from repro.errors import ConfigurationError


#: A position on the map grid: finite, and far inside ±10^9 on any map.
COORD = Real(1e9)


@wire(0x8203, x=COORD, y=COORD, timestamp_ms=TIME_MS)
@dataclass(frozen=True)
class TrackPoint:
    """One GPS fix."""

    x: float
    y: float
    timestamp_ms: float


@wire(
    0x8204, photo_id=Str, user_id=Str, claimed_x=COORD, claimed_y=COORD, taken_at_ms=TIME_MS,
    camera_fingerprint=bytes, is_spoofed=Bool,
)
@dataclass(frozen=True)
class PhotoSubmission:
    """What a user submits to the maps service (the contribution itself)."""

    photo_id: str
    user_id: str
    claimed_x: float
    claimed_y: float
    taken_at_ms: float
    camera_fingerprint: bytes
    is_spoofed: bool  # ground truth, never shown to the validator


@wire(0x8205, user_id=Str, track=ListOf(TrackPoint), camera_fingerprint=bytes)
@dataclass
class UserGeoContext:
    """A user's private validation data: track + device fingerprint."""

    user_id: str
    track: list[TrackPoint]
    camera_fingerprint: bytes

    def position_at(self, timestamp_ms: float) -> TrackPoint | None:
        """The nearest track fix to a timestamp (None if track is empty)."""
        if not self.track:
            return None
        return min(self.track, key=lambda p: abs(p.timestamp_ms - timestamp_ms))


def distance(ax: float, ay: float, bx: float, by: float) -> float:
    return math.hypot(ax - bx, ay - by)


@dataclass
class GeoWorkload:
    """A fleet of users with tracks and a mixed bag of photo submissions."""

    contexts: dict[str, UserGeoContext] = field(default_factory=dict)
    submissions: list[PhotoSubmission] = field(default_factory=list)

    @classmethod
    def generate(
        cls,
        num_users: int,
        rng: HmacDrbg,
        photos_per_user: int = 4,
        spoof_fraction: float = 0.3,
        track_points: int = 60,
        grid_size: float = 1000.0,
        step_size: float = 15.0,
    ) -> "GeoWorkload":
        """Generate tracks and submissions with ``spoof_fraction`` forgeries."""
        if num_users < 1:
            raise ConfigurationError("need at least one user")
        if not 0.0 <= spoof_fraction <= 1.0:
            raise ConfigurationError("spoof_fraction must be in [0, 1]")
        workload = cls()
        photo_counter = 0
        for index in range(num_users):
            user_id = f"geo-user-{index:04d}"
            user_rng = rng.fork(user_id)
            track = _random_walk(user_rng, track_points, grid_size, step_size)
            fingerprint = user_rng.generate(16)
            workload.contexts[user_id] = UserGeoContext(
                user_id=user_id, track=track, camera_fingerprint=fingerprint
            )
            for __ in range(photos_per_user):
                spoof = user_rng.uniform() < spoof_fraction
                photo_id = f"photo-{photo_counter:05d}"
                photo_counter += 1
                if spoof:
                    submission = _spoofed_submission(
                        photo_id, user_id, track, fingerprint, user_rng, grid_size
                    )
                else:
                    submission = _honest_submission(
                        photo_id, user_id, track, fingerprint, user_rng
                    )
                workload.submissions.append(submission)
        return workload

    def labels(self) -> dict[str, bool]:
        """Ground truth: photo id → is_spoofed."""
        return {s.photo_id: s.is_spoofed for s in self.submissions}


def _random_walk(
    rng: HmacDrbg, points: int, grid_size: float, step_size: float
) -> list[TrackPoint]:
    x = rng.uniform() * grid_size
    y = rng.uniform() * grid_size
    track = []
    now = 0.0
    for __ in range(points):
        track.append(TrackPoint(x=x, y=y, timestamp_ms=now))
        x = min(max(x + (rng.uniform() - 0.5) * 2 * step_size, 0.0), grid_size)
        y = min(max(y + (rng.uniform() - 0.5) * 2 * step_size, 0.0), grid_size)
        now += 30_000.0 + rng.uniform() * 30_000.0  # a fix every 30-60 s
    return track


def _honest_submission(
    photo_id: str,
    user_id: str,
    track: list[TrackPoint],
    fingerprint: bytes,
    rng: HmacDrbg,
) -> PhotoSubmission:
    point = rng.choice(track)
    # GPS noise of a few meters on the claim.
    return PhotoSubmission(
        photo_id=photo_id,
        user_id=user_id,
        claimed_x=point.x + (rng.uniform() - 0.5) * 6.0,
        claimed_y=point.y + (rng.uniform() - 0.5) * 6.0,
        taken_at_ms=point.timestamp_ms + (rng.uniform() - 0.5) * 2_000.0,
        camera_fingerprint=fingerprint,
        is_spoofed=False,
    )


def _spoofed_submission(
    photo_id: str,
    user_id: str,
    track: list[TrackPoint],
    fingerprint: bytes,
    rng: HmacDrbg,
    grid_size: float,
) -> PhotoSubmission:
    mode = rng.choice(["far-location", "wrong-fingerprint"])
    point = rng.choice(track)
    if mode == "far-location":
        # Claim somewhere the walk never plausibly reached.
        claimed_x = (point.x + grid_size / 2.0) % grid_size
        claimed_y = (point.y + grid_size / 2.0) % grid_size
        return PhotoSubmission(
            photo_id=photo_id,
            user_id=user_id,
            claimed_x=claimed_x,
            claimed_y=claimed_y,
            taken_at_ms=point.timestamp_ms,
            camera_fingerprint=fingerprint,
            is_spoofed=True,
        )
    # Stolen/stock photo: right place, wrong device.
    return PhotoSubmission(
        photo_id=photo_id,
        user_id=user_id,
        claimed_x=point.x,
        claimed_y=point.y,
        taken_at_ms=point.timestamp_ms,
        camera_fingerprint=rng.generate(16),
        is_spoofed=True,
    )

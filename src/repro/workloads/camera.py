"""In-home camera streams for the activity-detection example.

§2 of the paper: "activity-recognition models improve from analyzing
silhouettes and image structure from in-home cameras, but checking that
silhouettes are legitimate requires analysis of full video streams captured
at people's homes."  Few data sources are more sensitive than in-home
video — which is exactly why the validation must happen on-device.

The synthetic substrate:

* a **video stream** is a sequence of frames, each containing one person
  blob at a position; *active* residents move (random walk with real step
  sizes), *idle* residents barely do;
* the **contribution** is a motion-energy histogram — per-frame step sizes
  bucketed into bins and normalized to [0, 1] — enough for a service to
  train activity models, far less than the video;
* the **private validation data** is the full frame sequence, from which
  the histogram can be recomputed exactly;
* **forged** contributions are histograms fabricated without any video
  (claiming activity that never happened — e.g. an insurance-fraud bot
  simulating an occupied, active home).

Ground-truth labels let experiment E17 score the silhouette-corroboration
predicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codec import Int, ListOf, Real, Str, wire
from repro.crypto.drbg import HmacDrbg
from repro.errors import ConfigurationError

ACTIVITY_ACTIVE = "active"
ACTIVITY_IDLE = "idle"

MOTION_BINS = 8
MAX_STEP = 16.0  # pixels/frame; histogram bin width = MAX_STEP / MOTION_BINS
MAX_PIXEL = 1e6  # a frame coordinate past this is absurd, and could overflow a step


@wire(0x8206, index=Int(0), x=Real(MAX_PIXEL), y=Real(MAX_PIXEL))
@dataclass(frozen=True)
class Frame:
    """One video frame, reduced to the person blob's position."""

    index: int
    x: float
    y: float


@wire(0x8207, user_id=Str, frames=ListOf(Frame), activity=Str)
@dataclass
class VideoStream:
    """A resident's private video: the full frame sequence."""

    user_id: str
    frames: list[Frame]
    activity: str  # ground truth


def motion_histogram(frames: list[Frame]) -> list[float]:
    """The contribution vector: normalized motion-energy histogram.

    Deterministic function of the frames, so the Glimmer can recompute it
    from the private video and corroborate a reported vector exactly.
    """
    if len(frames) < 2:
        return [0.0] * MOTION_BINS
    bins = [0] * MOTION_BINS
    width = MAX_STEP / MOTION_BINS
    for i in range(len(frames) - 1):
        step = (
            (frames[i + 1].x - frames[i].x) ** 2
            + (frames[i + 1].y - frames[i].y) ** 2
        ) ** 0.5
        index = min(MOTION_BINS - 1, int(step / width))
        bins[index] += 1
    total = len(frames) - 1
    return [count / total for count in bins]


@dataclass(frozen=True)
class ActivityContribution:
    """What a resident submits: the histogram plus ground-truth bookkeeping."""

    user_id: str
    values: tuple[float, ...]
    is_forged: bool


@dataclass
class CameraWorkload:
    """A set of homes: private streams and a mixed bag of contributions."""

    streams: dict[str, VideoStream] = field(default_factory=dict)
    contributions: list[ActivityContribution] = field(default_factory=list)

    @classmethod
    def generate(
        cls,
        num_users: int,
        rng: HmacDrbg,
        frames_per_stream: int = 120,
        active_fraction: float = 0.5,
        forged_fraction: float = 0.3,
    ) -> "CameraWorkload":
        if num_users < 1:
            raise ConfigurationError("need at least one user")
        if not 0.0 <= active_fraction <= 1.0:
            raise ConfigurationError("active_fraction must be in [0, 1]")
        if not 0.0 <= forged_fraction <= 1.0:
            raise ConfigurationError("forged_fraction must be in [0, 1]")
        if frames_per_stream < 2:
            raise ConfigurationError("a stream needs at least two frames")
        workload = cls()
        num_active = round(num_users * active_fraction)
        for index in range(num_users):
            user_id = f"home-{index:04d}"
            user_rng = rng.fork(user_id)
            activity = ACTIVITY_ACTIVE if index < num_active else ACTIVITY_IDLE
            stream = _stream_for(user_id, user_rng, frames_per_stream, activity)
            workload.streams[user_id] = stream
            forged = user_rng.uniform() < forged_fraction
            if forged:
                # No video behind it: a fabricated "very active" histogram.
                values = _forged_histogram(user_rng)
            else:
                values = tuple(motion_histogram(stream.frames))
            workload.contributions.append(
                ActivityContribution(
                    user_id=user_id, values=tuple(values), is_forged=forged
                )
            )
        return workload

    def labels(self) -> dict[str, bool]:
        return {c.user_id: c.is_forged for c in self.contributions}


def _stream_for(
    user_id: str, rng: HmacDrbg, num_frames: int, activity: str
) -> VideoStream:
    x = 20.0 + rng.uniform() * 60.0
    y = 20.0 + rng.uniform() * 60.0
    step_scale = 6.0 if activity == ACTIVITY_ACTIVE else 0.4
    frames = []
    for index in range(num_frames):
        frames.append(Frame(index=index, x=x, y=y))
        x += (rng.uniform() - 0.5) * 2 * step_scale
        y += (rng.uniform() - 0.5) * 2 * step_scale
    return VideoStream(user_id=user_id, frames=frames, activity=activity)


def _forged_histogram(rng: HmacDrbg) -> tuple[float, ...]:
    """A plausible-looking but fabricated activity histogram.

    The forger concentrates mass in high-motion bins (claiming an active
    home) and normalizes — individually legal values, no video behind them.
    """
    raw = [rng.uniform() * (0.2 if i < MOTION_BINS // 2 else 1.0) for i in range(MOTION_BINS)]
    total = sum(raw)
    return tuple(value / total for value in raw)

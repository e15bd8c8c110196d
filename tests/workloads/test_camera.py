"""Tests for the in-home camera workload and the silhouette predicate."""

import pytest

from repro.core.predicates import SilhouetteCorroborationPredicate
from repro.core.validation import PrivateContext, RoundFacts, default_registry
from repro.crypto.drbg import HmacDrbg
from repro.errors import ConfigurationError
from repro.sgx.counters import MonotonicCounter
from repro.workloads.camera import (
    ACTIVITY_ACTIVE,
    ACTIVITY_IDLE,
    MOTION_BINS,
    CameraWorkload,
    motion_histogram,
)

FACTS = RoundFacts(1, (), MonotonicCounter(b"camera", "round-1"))


def rng():
    return HmacDrbg(b"camera-tests")


def test_workload_shape():
    workload = CameraWorkload.generate(6, rng(), frames_per_stream=50)
    assert len(workload.streams) == 6
    assert len(workload.contributions) == 6
    assert all(len(s.frames) == 50 for s in workload.streams.values())


def test_activity_split():
    workload = CameraWorkload.generate(10, rng(), active_fraction=0.3)
    active = [s for s in workload.streams.values() if s.activity == ACTIVITY_ACTIVE]
    assert len(active) == 3


def test_histogram_is_probability_vector():
    workload = CameraWorkload.generate(4, rng())
    for stream in workload.streams.values():
        histogram = motion_histogram(stream.frames)
        assert len(histogram) == MOTION_BINS
        assert sum(histogram) == pytest.approx(1.0)
        assert all(0.0 <= v <= 1.0 for v in histogram)


def test_histogram_short_stream():
    assert motion_histogram([]) == [0.0] * MOTION_BINS


def test_active_homes_move_more():
    workload = CameraWorkload.generate(20, rng(), forged_fraction=0.0)
    def nonzero_motion(stream):
        return sum(motion_histogram(stream.frames)[1:])
    active = [
        nonzero_motion(s) for s in workload.streams.values()
        if s.activity == ACTIVITY_ACTIVE
    ]
    idle = [
        nonzero_motion(s) for s in workload.streams.values()
        if s.activity == ACTIVITY_IDLE
    ]
    assert min(active) > max(idle)


def test_forged_contributions_labeled():
    workload = CameraWorkload.generate(20, rng(), forged_fraction=0.5)
    labels = workload.labels()
    assert any(labels.values())
    assert not all(labels.values())


def test_generate_validations():
    with pytest.raises(ConfigurationError):
        CameraWorkload.generate(0, rng())
    with pytest.raises(ConfigurationError):
        CameraWorkload.generate(2, rng(), active_fraction=1.5)
    with pytest.raises(ConfigurationError):
        CameraWorkload.generate(2, rng(), forged_fraction=-0.1)
    with pytest.raises(ConfigurationError):
        CameraWorkload.generate(2, rng(), frames_per_stream=1)


# --------------------------------------------------------- predicate tests

def test_silhouette_accepts_honest():
    workload = CameraWorkload.generate(6, rng(), forged_fraction=0.0)
    predicate = SilhouetteCorroborationPredicate(0.02)
    for contribution in workload.contributions:
        stream = workload.streams[contribution.user_id]
        outcome = predicate.evaluate(
            list(contribution.values), PrivateContext(video_stream=stream), FACTS
        )
        assert outcome.passed, outcome.reason


def test_silhouette_rejects_forged():
    workload = CameraWorkload.generate(12, rng(), forged_fraction=1.0)
    predicate = SilhouetteCorroborationPredicate(0.05)
    for contribution in workload.contributions:
        stream = workload.streams[contribution.user_id]
        outcome = predicate.evaluate(
            list(contribution.values), PrivateContext(video_stream=stream), FACTS
        )
        assert not outcome.passed


def test_silhouette_rejects_missing_video():
    predicate = SilhouetteCorroborationPredicate()
    outcome = predicate.evaluate([0.1] * MOTION_BINS, PrivateContext(), FACTS)
    assert not outcome.passed
    assert "unavailable" in outcome.reason


def test_silhouette_rejects_wrong_bin_count():
    workload = CameraWorkload.generate(1, rng(), forged_fraction=0.0)
    stream = next(iter(workload.streams.values()))
    predicate = SilhouetteCorroborationPredicate()
    outcome = predicate.evaluate([0.5], PrivateContext(video_stream=stream), FACTS)
    assert not outcome.passed


def test_silhouette_cycles_scale_with_frames():
    predicate = SilhouetteCorroborationPredicate()
    short = CameraWorkload.generate(1, rng().fork("s"), frames_per_stream=10)
    long = CameraWorkload.generate(1, rng().fork("l"), frames_per_stream=200)
    short_stream = next(iter(short.streams.values()))
    long_stream = next(iter(long.streams.values()))
    short_cycles = predicate.evaluate(
        motion_histogram(short_stream.frames),
        PrivateContext(video_stream=short_stream),
        FACTS,
    ).cycles
    long_cycles = predicate.evaluate(
        motion_histogram(long_stream.frames),
        PrivateContext(video_stream=long_stream),
        FACTS,
    ).cycles
    assert long_cycles > short_cycles


def test_silhouette_in_registry():
    predicate = default_registry().build("silhouette:0.1")
    assert predicate.tolerance == 0.1
    assert predicate.required_context() == ("video_stream",)


def test_silhouette_invalid_tolerance():
    with pytest.raises(ConfigurationError):
        SilhouetteCorroborationPredicate(-0.1)

"""Concrete validation predicates — the ladder of §2.

The paper sketches an escalation of validators for the keyboard service:

1. *range-checking model parameters* — cheap, stops out-of-range forgery
   (the 538 attack) but "she can still send arbitrary fictitious values
   within that range";
2. *observe actual keyboard behavior (a la NAB [5]) to match keyboard
   events to reported model weights* — costlier, forces the adversary to
   fabricate keyboard activity;
3. *observe CPU branches [17] to identify a plausible execution of the
   model-construction code* — costliest, forces fabrication of a whole
   training execution.

Each predicate here reports its simulated cycle cost, so experiment E6 can
chart Glimmer-side complexity against the adversary's forgery cost and the
detection rate at each rung.  Geo and purchase predicates serve the
photos-for-maps (E11) and recommender examples.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from repro.core.validation import PrivateContext, RoundFacts, ValidationOutcome
from repro.crypto.hashing import hash_items
from repro.errors import ConfigurationError

# Cycle-cost coefficients (same currency as repro.sgx.costs).
_RANGE_CYCLES_PER_PARAM = 4
_NORM_CYCLES_PER_PARAM = 8
_KEYSTROKE_CYCLES_PER_EVENT = 35
_EXEC_TRACE_CYCLES_PER_TOKEN = 240
_GEO_CYCLES_PER_FIX = 20
_PURCHASE_CYCLES_PER_RECORD = 15
_SILHOUETTE_CYCLES_PER_FRAME = 90  # per-frame silhouette extraction is pricey

# Human typing never has near-zero inter-key variance (ms^2).
_MIN_HUMAN_TIMING_VARIANCE = 500.0


class AcceptAllPredicate:
    """The no-Glimmer baseline: endorse everything (Figure 1c's failure)."""

    name = "accept-all"
    magnitude = None

    def required_context(self) -> tuple[str, ...]:
        return ()

    def evaluate(
        self, values: Sequence[float], context: PrivateContext, facts: RoundFacts
    ) -> ValidationOutcome:
        return ValidationOutcome(
            passed=True, confidence=0.0, reason="no validation performed",
            predicate_name=self.name, cycles=1,
        )


class RangeCheckPredicate:
    """Every parameter must lie in ``[low, high]`` — the paper's first rung.

    Defeats the Figure 1d magnitude attack outright; cannot tell a maxed-out
    legal value from a genuine one.
    """

    name = "range"

    def __init__(self, low: float = 0.0, high: float = 1.0) -> None:
        if low > high:
            raise ConfigurationError("range low must not exceed high")
        self.low = low
        self.high = high
        self.magnitude = max(abs(low), abs(high))

    def required_context(self) -> tuple[str, ...]:
        return ()

    def evaluate(
        self, values: Sequence[float], context: PrivateContext, facts: RoundFacts
    ) -> ValidationOutcome:
        cycles = _RANGE_CYCLES_PER_PARAM * max(1, len(values))
        for i, value in enumerate(values):
            if not self.low <= value <= self.high:
                return _refused(
                    self,
                    f"parameter {i} = {value} outside legal range [{self.low}, {self.high}]",
                    cycles,
                )
        return ValidationOutcome(
            passed=True, confidence=1.0, reason="all parameters in range",
            predicate_name=self.name, cycles=cycles,
        )


class NormBoundPredicate:
    """L2 norm of the contribution must not exceed ``bound``.

    The standard defense against gradient-boosting attacks when per-
    parameter ranges are too loose.
    """

    name = "norm"

    def __init__(self, bound: float = 8.0) -> None:
        if bound <= 0:
            raise ConfigurationError("norm bound must be positive")
        self.bound = bound
        self.magnitude = bound  # no coordinate exceeds the L2 norm

    def required_context(self) -> tuple[str, ...]:
        return ()

    def evaluate(
        self, values: Sequence[float], context: PrivateContext, facts: RoundFacts
    ) -> ValidationOutcome:
        cycles = _NORM_CYCLES_PER_PARAM * max(1, len(values))
        norm = math.sqrt(sum(v * v for v in values))
        passed = norm <= self.bound
        return ValidationOutcome(
            passed=passed,
            confidence=1.0,
            reason=f"L2 norm {norm:.3f} vs bound {self.bound}",
            predicate_name=self.name,
            cycles=cycles,
        )


class RateLimitPredicate:
    """At most ``max_per_round`` contributions per aggregation round.

    Counts on the round's counter in ``facts`` — in a Glimmer, the
    enclave's monotonic counter, so the limit is rollback-proof against a
    host that restarts the enclave.
    """

    name = "rate"
    magnitude = None

    def __init__(self, max_per_round: int = 1) -> None:
        if max_per_round < 1:
            raise ConfigurationError("max_per_round must be >= 1")
        self.max_per_round = max_per_round

    def required_context(self) -> tuple[str, ...]:
        return ()

    def evaluate(
        self, values: Sequence[float], context: PrivateContext, facts: RoundFacts
    ) -> ValidationOutcome:
        count = facts.counter.increment()
        passed = count <= self.max_per_round
        return ValidationOutcome(
            passed=passed,
            confidence=1.0,
            reason=f"contribution {count} of {self.max_per_round} allowed this round",
            predicate_name=self.name,
            cycles=60,
        )


class KeystrokeCorroborationPredicate:
    """NAB-style rung 2: reported weights must match observed typing.

    Requires ``context.keystroke_trace`` (a
    :class:`repro.workloads.keyboard.KeystrokeTrace`) and reads the bigram
    list from ``facts.features``.  Two checks:

    * the trace's inter-key timing variance must be human-plausible (a
      machine-generated trace is flat);
    * weights recomputed from the *typed* text must match the reported
      vector within ``tolerance``.
    """

    name = "keystrokes"
    magnitude = None

    def __init__(self, tolerance: float = 0.15) -> None:
        if tolerance < 0:
            raise ConfigurationError("tolerance must be non-negative")
        self.tolerance = tolerance

    def required_context(self) -> tuple[str, ...]:
        return ("keystroke_trace",)

    def evaluate(
        self, values: Sequence[float], context: PrivateContext, facts: RoundFacts
    ) -> ValidationOutcome:
        trace = context.keystroke_trace
        if trace is None:
            return _refused(self, "keystroke trace unavailable", 10)
        events = trace.events
        cycles = _KEYSTROKE_CYCLES_PER_EVENT * max(1, len(events))
        if len(events) < 16:
            return _refused(
                self, f"trace too short ({len(events)} events) to corroborate", cycles
            )
        if trace.timing_variance() < _MIN_HUMAN_TIMING_VARIANCE:
            return _refused(self, "inter-key timing variance is machine-like", cycles, 0.95)
        recomputed = _weights_from_sentences(trace.typed_sentences(), facts.features)
        worst = max(
            (abs(r - v) for r, v in zip(recomputed, values)), default=0.0
        )
        if len(recomputed) != len(values):
            return _refused(self, "reported vector length does not match feature list", cycles)
        passed = worst <= self.tolerance
        return ValidationOutcome(
            passed=passed,
            confidence=0.9,
            reason=f"max |reported - observed| = {worst:.4f} vs tolerance {self.tolerance}",
            predicate_name=self.name,
            cycles=cycles,
        )


class ExecutionTracePredicate:
    """XTrec-style rung 3: a plausible training execution must back the weights.

    The device supplies its training sentences and a *trace commitment* —
    a hash chain over (sentences, resulting weights) standing in for a CPU
    branch trace [17].  The predicate re-executes training inside the
    Glimmer, recomputes the commitment, and requires both to match.  An
    adversary now has to fabricate an entire consistent execution, the
    costliest rung of the ladder.
    """

    name = "exec-trace"
    magnitude = None

    def __init__(self, tolerance: float = 0.02) -> None:
        if tolerance < 0:
            raise ConfigurationError("tolerance must be non-negative")
        self.tolerance = tolerance

    def required_context(self) -> tuple[str, ...]:
        return ("sentences", "trace_commitment")

    def evaluate(
        self, values: Sequence[float], context: PrivateContext, facts: RoundFacts
    ) -> ValidationOutcome:
        sentences, commitment = context.sentences, context.trace_commitment
        if sentences is None or commitment is None:
            return _refused(self, "sentences or trace commitment unavailable", 10)
        num_tokens = sum(len(s) for s in sentences)
        cycles = _EXEC_TRACE_CYCLES_PER_TOKEN * max(1, num_tokens)
        recomputed = _weights_from_sentences(sentences, facts.features)
        if len(recomputed) != len(values):
            return _refused(self, "reported vector length does not match feature list", cycles)
        worst = max(
            (abs(r - v) for r, v in zip(recomputed, values)), default=0.0
        )
        expected_commitment = trace_commitment(sentences, recomputed)
        if commitment != expected_commitment:
            return _refused(self, "execution trace commitment does not replay", cycles)
        passed = worst <= self.tolerance
        return ValidationOutcome(
            passed=passed,
            confidence=0.98,
            reason=f"replayed execution matches within {worst:.4f}",
            predicate_name=self.name,
            cycles=cycles,
        )


class GeoCorroborationPredicate:
    """Photos-for-maps: the user must actually have been where they claim.

    Requires ``context.geo_context`` (track + camera fingerprint) and
    ``context.submission`` (the photo).  Checks that the claimed
    location is within ``radius`` of the user's track around the photo
    timestamp, and that the photo's camera fingerprint matches the device.
    """

    name = "geo"
    magnitude = None

    def __init__(self, radius: float = 25.0) -> None:
        if radius <= 0:
            raise ConfigurationError("radius must be positive")
        self.radius = radius

    def required_context(self) -> tuple[str, ...]:
        return ("geo_context", "submission")

    def evaluate(
        self, values: Sequence[float], context: PrivateContext, facts: RoundFacts
    ) -> ValidationOutcome:
        geo, submission = context.geo_context, context.submission
        if geo is None or submission is None:
            return _refused(self, "geo context or submission unavailable", 10)
        cycles = _GEO_CYCLES_PER_FIX * max(1, len(geo.track))
        if submission.camera_fingerprint != geo.camera_fingerprint:
            return _refused(self, "camera fingerprint does not match this device", cycles)
        fix = geo.position_at(submission.taken_at_ms)
        if fix is None:
            return _refused(self, "no GPS track available", cycles)
        offset = math.hypot(
            fix.x - submission.claimed_x, fix.y - submission.claimed_y
        )
        passed = offset <= self.radius
        return ValidationOutcome(
            passed=passed,
            confidence=0.9,
            reason=f"claimed location {offset:.1f}m from track (radius {self.radius}m)",
            predicate_name=self.name,
            cycles=cycles,
        )


class PurchaseCorroborationPredicate:
    """Recommender: a review must be backed by a purchase that predates it."""

    name = "purchase"
    magnitude = None

    def required_context(self) -> tuple[str, ...]:
        return ("shopping_context", "review")

    def evaluate(
        self, values: Sequence[float], context: PrivateContext, facts: RoundFacts
    ) -> ValidationOutcome:
        shopping, review = context.shopping_context, context.review
        if shopping is None or review is None:
            return _refused(self, "shopping context or review unavailable", 10)
        cycles = _PURCHASE_CYCLES_PER_RECORD * max(1, len(shopping.purchases))
        purchase_time = shopping.purchase_time(review.product_id)
        if purchase_time is None:
            return _refused(self, f"no purchase of {review.product_id} in history", cycles)
        if review.posted_at_ms < purchase_time:
            return _refused(self, "review predates the purchase", cycles)
        return ValidationOutcome(
            passed=True, confidence=0.95, reason="purchase corroborates review",
            predicate_name=self.name, cycles=cycles,
        )


class SilhouetteCorroborationPredicate:
    """Activity detection: the motion histogram must replay from the video.

    §2's third example: "checking that silhouettes are legitimate requires
    analysis of full video streams captured at people's homes."  Requires
    ``context.video_stream`` (a
    :class:`repro.workloads.camera.VideoStream`); the predicate recomputes
    the motion-energy histogram from the private frames and requires the
    reported vector to match within ``tolerance`` per bin.  A forger
    without real footage cannot produce a matching histogram except by
    guessing the resident's actual movements.
    """

    name = "silhouette"
    magnitude = None

    def __init__(self, tolerance: float = 0.05) -> None:
        if tolerance < 0:
            raise ConfigurationError("tolerance must be non-negative")
        self.tolerance = tolerance

    def required_context(self) -> tuple[str, ...]:
        return ("video_stream",)

    def evaluate(
        self, values: Sequence[float], context: PrivateContext, facts: RoundFacts
    ) -> ValidationOutcome:
        from repro.workloads.camera import motion_histogram

        stream = context.video_stream
        if stream is None:
            return _refused(self, "video stream unavailable", 10)
        frames = stream.frames
        cycles = _SILHOUETTE_CYCLES_PER_FRAME * max(1, len(frames))
        recomputed = motion_histogram(frames)
        if len(recomputed) != len(values):
            return _refused(self, "reported histogram has the wrong number of bins", cycles)
        worst = max(
            (abs(r - v) for r, v in zip(recomputed, values)), default=0.0
        )
        passed = worst <= self.tolerance
        return ValidationOutcome(
            passed=passed,
            confidence=0.95,
            reason=f"max |reported - observed| = {worst:.4f} vs tolerance {self.tolerance}",
            predicate_name=self.name,
            cycles=cycles,
        )


class ChainPredicate:
    """All member predicates must pass; costs add, confidence is the minimum."""

    name = "chain"

    def __init__(self, members: Sequence) -> None:
        if not members:
            raise ConfigurationError("chain needs at least one member")
        self.members = list(members)
        proven = [m.magnitude for m in self.members if m.magnitude is not None]
        self.magnitude = min(proven, default=None)

    def required_context(self) -> tuple[str, ...]:
        needed: list[str] = []
        for member in self.members:
            for item in member.required_context():
                if item not in needed:
                    needed.append(item)
        return tuple(needed)

    def evaluate(
        self, values: Sequence[float], context: PrivateContext, facts: RoundFacts
    ) -> ValidationOutcome:
        total_cycles = 0
        confidence = 1.0
        for member in self.members:
            outcome = member.evaluate(values, context, facts)
            total_cycles += outcome.cycles
            confidence = min(confidence, outcome.confidence)
            if not outcome.passed:
                return _refused(
                    self, f"{member.name}: {outcome.reason}", total_cycles, outcome.confidence
                )
        return ValidationOutcome(
            passed=True, confidence=confidence, reason="all chained predicates passed",
            predicate_name=self.name, cycles=total_cycles,
        )


def _refused(predicate, reason: str, cycles: int, confidence: float = 1.0) -> ValidationOutcome:
    """A failing verdict of ``predicate``'s."""
    return ValidationOutcome(False, confidence, reason, predicate.name, cycles)


def _weights_from_sentences(sentences, features) -> list[float]:
    """Shared weight recomputation (must mirror the client trainer exactly)."""
    pair_counts: Counter = Counter()
    left_counts: Counter = Counter()
    for sentence in sentences:
        for left, right in zip(sentence, sentence[1:]):
            pair_counts[(left, right)] += 1
            left_counts[left] += 1
    weights = []
    for left, right in features:
        total = left_counts.get(left, 0)
        weights.append(pair_counts.get((left, right), 0) / total if total else 0.0)
    return weights


def trace_commitment(sentences, weights: Sequence[float]) -> bytes:
    """The execution-trace commitment both client and Glimmer compute."""
    items = [b"exec-trace-v1"]
    for sentence in sentences:
        items.append(" ".join(sentence).encode("utf-8"))
    items.append(
        b"".join(round(w * 1_000_000).to_bytes(8, "big", signed=True) for w in weights)
    )
    return hash_items("exec-trace-commitment", items)

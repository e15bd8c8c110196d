"""Keystroke event traces for behavioral corroboration (NAB-style).

§2 of the paper: "a more sophisticated validator might instead observe
actual keyboard behavior (a la NAB [5]) to match keyboard events to
reported model weights."  That requires keystroke traces, which this module
synthesizes with the statistics corroboration predicates check:

* **human** traces: per-character key events with log-normal-ish inter-key
  intervals (mean ~180 ms, heavy right tail), word boundaries as spaces;
* **forged** traces: what a cheating client fabricates — absent events,
  uniform robot-like timing, or (at high effort) a replayed human cadence.

Ground truth for a trace is the sentence sequence it types, so a predicate
can reconstruct bigram counts from events and compare with the reported
model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.codec import TIME_MS, ListOf, Str, wire
from repro.crypto.drbg import HmacDrbg

Sentence = Sequence[str]

HUMAN_MEAN_INTERVAL_MS = 180.0
HUMAN_JITTER_MS = 140.0
ROBOT_INTERVAL_MS = 8.0


@wire(0x8201, char=Str, timestamp_ms=TIME_MS)
@dataclass(frozen=True)
class KeyEvent:
    """One key press: the character and when it happened."""

    char: str
    timestamp_ms: float


@wire(0x8202, events=ListOf(KeyEvent))
@dataclass
class KeystrokeTrace:
    """A stream of key events, plus helpers predicates rely on."""

    events: list[KeyEvent]

    def duration_ms(self) -> float:
        if len(self.events) < 2:
            return 0.0
        return self.events[-1].timestamp_ms - self.events[0].timestamp_ms

    def inter_key_intervals(self) -> list[float]:
        return [
            self.events[i + 1].timestamp_ms - self.events[i].timestamp_ms
            for i in range(len(self.events) - 1)
        ]

    def typed_text(self) -> str:
        return "".join(event.char for event in self.events)

    def typed_sentences(self) -> list[list[str]]:
        """Reconstruct token sentences from the raw event stream."""
        sentences = []
        for line in self.typed_text().split("\n"):
            tokens = [token for token in line.split(" ") if token]
            if tokens:
                sentences.append(tokens)
        return sentences

    def timing_variance(self) -> float:
        """Variance of inter-key intervals; near zero screams 'robot'."""
        intervals = self.inter_key_intervals()
        if len(intervals) < 2:
            return 0.0
        mean = sum(intervals) / len(intervals)
        return sum((x - mean) ** 2 for x in intervals) / (len(intervals) - 1)


def _human_interval(rng: HmacDrbg) -> float:
    # Sum of uniforms approximates the right-skewed human distribution well
    # enough for variance-based checks.
    base = HUMAN_MEAN_INTERVAL_MS * 0.4
    return base + rng.uniform() * HUMAN_JITTER_MS + rng.uniform() * HUMAN_JITTER_MS


def trace_for_sentences(
    sentences: Sequence[Sentence],
    rng: HmacDrbg,
    start_ms: float = 0.0,
) -> KeystrokeTrace:
    """A human-statistics trace that types exactly ``sentences``."""
    events: list[KeyEvent] = []
    now = start_ms
    for sentence in sentences:
        text = " ".join(sentence) + "\n"
        for char in text:
            events.append(KeyEvent(char=char, timestamp_ms=now))
            now += _human_interval(rng)
        now += 400.0 + rng.uniform() * 1200.0  # pause between sentences
    return KeystrokeTrace(events=events)


def robotic_trace_for_sentences(
    sentences: Sequence[Sentence],
    start_ms: float = 0.0,
) -> KeystrokeTrace:
    """A cheaply fabricated trace: right text, machine-gun timing."""
    events: list[KeyEvent] = []
    now = start_ms
    for sentence in sentences:
        text = " ".join(sentence) + "\n"
        for char in text:
            events.append(KeyEvent(char=char, timestamp_ms=now))
            now += ROBOT_INTERVAL_MS
    return KeystrokeTrace(events=events)


def empty_trace() -> KeystrokeTrace:
    """The zero-effort forgery: claim weights, provide no evidence."""
    return KeystrokeTrace(events=[])

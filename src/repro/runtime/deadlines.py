"""Adaptive per-phase deadlines derived from observed latency — a round's
only deadline.

A fixed per-phase budget assumes the operator knows the fleet's latency
distribution in advance; a degraded-link fleet makes that assumption
absurd — the right budget for an urban-wifi cohort strands half a
cellular-edge cohort.  :class:`AdaptiveDeadlines` instead derives each
phase's cutoff from the latencies the engine *observes* while working
the phase: after ``warmup`` successful operations, the phase deadline
becomes::

    phase_start + max(min_budget_ms, pctl(percentile) * multiplier * ops)

where ``ops`` is the number of participants the phase must serve.  The
cutoff is re-derived as observations accumulate, so a phase that starts
slow earns a longer budget instead of stranding its tail — while a
genuinely stuck cohort is still bounded, because ``multiplier`` times a
high percentile is a *tolerance*, not an open door.

The controller also classifies **stragglers**: a single operation slower
than ``pctl * multiplier`` is flagged (telemetry), and with ``hedge``
enabled the engine grants a failed participant one hedged re-delivery —
a retransmission-numbered extra attempt — before degrading it into a
dropout.

Percentiles use the same subnormal-safe linear interpolation as
:func:`numpy.percentile` on the observed sample list; everything is
deterministic given the simulated clock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AdaptiveDeadlines", "PhaseDeadlineController"]


@dataclass(frozen=True)
class AdaptiveDeadlines:
    """Policy knobs for observation-derived phase deadlines."""

    percentile: float = 90.0
    multiplier: float = 5.0
    min_budget_ms: float = 1000.0
    warmup: int = 2
    """Successful operations to observe before any cutoff applies; a
    phase with fewer observations than this has no adaptive deadline."""
    hedge: bool = True
    """Grant a failed participant one hedged re-delivery (an extra,
    retransmission-numbered attempt) before degrading it to a dropout."""


class PhaseDeadlineController:
    """Derives one phase's cutoff from per-operation latency samples."""

    def __init__(
        self, policy: AdaptiveDeadlines, phase_start_ms: float, expected_ops: int
    ) -> None:
        self.policy = policy
        self.phase_start_ms = float(phase_start_ms)
        self.expected_ops = max(1, int(expected_ops))
        self.samples: list[float] = []
        self.stragglers = 0

    def observe(self, elapsed_ms: float) -> bool:
        """Record one successful operation; True if it was a straggler."""
        threshold = self.straggler_threshold_ms()
        self.samples.append(float(elapsed_ms))
        if threshold is not None and elapsed_ms > threshold:
            self.stragglers += 1
            return True
        return False

    def straggler_threshold_ms(self) -> float | None:
        """Per-operation tolerance; ``None`` until warmup completes."""
        if len(self.samples) < self.policy.warmup:
            return None
        pctl = float(np.percentile(self.samples, self.policy.percentile))
        return pctl * self.policy.multiplier

    def cutoff_ms(self) -> float | None:
        """Absolute phase deadline; ``None`` until warmup completes."""
        threshold = self.straggler_threshold_ms()
        if threshold is None:
            return None
        budget = max(
            self.policy.min_budget_ms, threshold * self.expected_ops
        )
        return self.phase_start_ms + budget

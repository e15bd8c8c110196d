"""What the streamed (subgroup) accumulator gives up, and its routing view.

The hierarchical path changes *where* mask state lives and *when*
submissions are folded, never what the aggregate is: per-subgroup
sum-zero families still sum to zero cohort-wide, and fold-on-arrival is
an associative ring sum.  What it gives up is per-row hindsight — a
streaming service releases each payload at admission, so it cannot
un-fold a contribution (quarantine eviction, late-reply discard) or
replay the accepted set for the finalize audit.  That is why
:func:`repro.scale.rounds.plan_route` blocks it under the same
conditions as the worker pool, which keeps the chaos and Byzantine
suites bit-identical with subgrouping configured.
"""

from __future__ import annotations

from repro.scale.config import ScaleConfig
from repro.scale.rounds import plan_route


def hierarchical_eligible(engine, **round_inputs) -> bool:
    """Would nothing keep this round off streamed subgroups, were they configured?"""
    return plan_route(engine, ScaleConfig(subgroup_size=1), **round_inputs).reason is None

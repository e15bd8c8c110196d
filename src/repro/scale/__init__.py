"""Multi-core scale-out for the round pipeline.

The ROADMAP north-star is population-scale aggregation, but the serial
RoundEngine runs every client handshake, mask delivery, enclave
contribution, and signature check on one core.  This package is what a
round may vary about that (DESIGN.md §10 "Round architecture") — its
executor and its accumulator — never what a device does or what the
engine books for it:

* :mod:`repro.scale.config` — the ``ScaleConfig(workers, shards,
  chunk_size, subgroup_size)`` knob the engine accepts, and the
  per-round ``RoutePlan`` (executor, accumulator, blocking reason)
  drawn from it; ``workers=0`` keeps today's serial bus path.
* :mod:`repro.scale.shard` — deterministic hash-partitioning of
  participants into cohort shards (the pool's dispatch grouping), and
  the ``ShardedRingReducer`` whose two-level fold is bit-exact against
  the flat ring sum.
* :mod:`repro.scale.pool` — the picklable per-client worker task — the
  bus commands plus the parent-drawn delivery leg, run through the
  device step of :mod:`repro.runtime.endpoints` — and the
  ``ProcessPoolExecutor`` wrapper that runs it.
* :mod:`repro.scale.rounds` — ``plan_route``, the one routing decision
  (anything faulty, adversarial, or non-standard runs the serial flat
  path, so chaos and Byzantine replays are untouched), and the pool
  executor: the provisioner draws every slot's delivery leg in serial
  order before dispatch, the slot-ordered merge makes worker
  scheduling unobservable, and a worker that dies costs one benign
  abort and a fresh pool.
* :mod:`repro.scale.subgroup` — the DRBG-keyed subgroup planner for
  hierarchical sum-zero aggregation: a pure function of
  ``(round_id, num_slots, group_size)``, numpy-backed so a u1M plan is
  two int64 arrays.
* :mod:`repro.scale.streaming` — per-subgroup ring accumulators that
  fold submissions on arrival and release the raw vectors, bounding
  parent ingest memory at O(n/g · k).
* :mod:`repro.scale.hierarchy` — what the streamed accumulator gives
  up, and ``hierarchical_eligible``, a one-line view over ``plan_route``.

Determinism contract: with the same seed, a parallel round produces the
same masks, blinded vectors, aggregate, commitment digests, outcomes,
and enclave cycle counts as the serial round, for any ``workers >= 1``
and any ``shards >= 1``.  Only transport telemetry (message/byte/latency
counters) differs, because worker dispatch replaces simulated wire hops.
"""

from repro.scale.config import RoutePlan, ScaleConfig
from repro.scale.shard import ShardedRingReducer, shard_of, plan_shards
from repro.scale.subgroup import SubgroupPlan, plan_subgroups

__all__ = [
    "RoutePlan",
    "ScaleConfig",
    "ShardedRingReducer",
    "shard_of",
    "plan_shards",
    "SubgroupPlan",
    "plan_subgroups",
]

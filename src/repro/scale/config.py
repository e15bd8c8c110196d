"""The engine-facing parallelism knob and the per-round plan drawn from it."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ScaleConfig:
    """How a :class:`~repro.runtime.engine.RoundEngine` parallelizes rounds.

    workers:
        Process-pool size for per-client work.  ``0`` disables the scale
        layer entirely — the engine runs today's serial bus path.
    shards:
        How many cohort shards participants are hash-partitioned into.
        Shards group worker dispatch and the partial aggregation/audit
        reducers; any value >= 1 yields bit-identical results (the merges
        are associative), so this is purely a topology/throughput choice.
    chunk_size:
        How many clients ride in one worker task.  Larger chunks amortize
        pickling (objects shared between clients are serialized once per
        chunk); smaller chunks spread a shard across more workers.
    subgroup_size:
        Bounded subgroup size ``g`` for hierarchical sum-zero
        aggregation.  ``0`` keeps the flat cohort; any value >= 1 makes
        eligible rounds (see :func:`repro.scale.rounds.plan_route`)
        sample per-subgroup mask families and stream submissions into
        per-subgroup accumulators — bit-exact against the flat path
        (each subgroup sums to zero, ring addition is associative), with
        mask state and §3 repair O(g) and parent ingest memory
        O(n/g · k) instead of O(n·k).

    ``workers`` picks a round's *executor* and ``subgroup_size`` its
    *accumulator*, independently: with both set, an eligible round runs
    its clients on the pool **and** streams their submissions into
    subgroup partials — neither takes precedence, and every blocking
    condition blocks both.
    """

    workers: int = 0
    shards: int = 1
    chunk_size: int = 32
    subgroup_size: int = 0

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigurationError("workers must be >= 0")
        if self.shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if self.chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        if self.subgroup_size < 0:
            raise ConfigurationError("subgroup_size must be >= 0")

    @property
    def enabled(self) -> bool:
        return self.workers > 0

    @property
    def hierarchical(self) -> bool:
        return self.subgroup_size > 0


@dataclass(frozen=True)
class RoutePlan:
    """How one round runs: its executor, its accumulator, and why not more.

    Decided once per round by :func:`repro.scale.rounds.plan_route` and
    kept on the engine's round record, where open, the pool driver and
    finalize read it.  The default is the serial flat round on the bus.
    """

    #: Executor: cohort shards for the fork pool; 0 = inline, on the bus.
    shards: int = 0
    #: Accumulator: streamed subgroups of at most this size; 0 = flat.
    subgroup_size: int = 0
    #: First condition that kept the round off a configured fast path.
    reason: str | None = None

    @property
    def pool(self) -> bool:
        return self.shards > 0

"""Asyncio driver over the engine's resumable round generator.

:meth:`~repro.runtime.engine.RoundEngine.round_stages` exposes one round
as a generator of phase-labelled suspension points; :class:`AsyncRoundEngine`
drains it with an ``await asyncio.sleep(0)`` between steps.  That single
await is the whole trick:

* **bit-exact parity** — the phase logic is the very same generator the
  synchronous :meth:`~repro.runtime.engine.RoundEngine.run_round` drains,
  and everything runs on one event-loop thread, so a single round driven
  async produces a :class:`~repro.runtime.telemetry.RoundReport` identical
  to the serial one, field for field;
* **overlap** — ``asyncio.gather`` over several rounds interleaves their
  generators at phase/participant granularity.  Engines sharing nothing
  (different tenants) interleave freely; rounds on *one* engine must not
  overlap (the transport's clock and the monitor's phase tracking are
  engine-global), which :class:`AsyncRoundEngine` enforces with a
  per-engine lock rather than leaving it as a footgun.

:func:`install_async_drive` retrofits a deployment whose tests call
``engine.run_round(...)`` synchronously — the chaos and Byzantine suites
run unchanged against the async engine through it.
"""

from __future__ import annotations

import asyncio
from typing import Any, Iterable, Mapping, Sequence

from repro.runtime.engine import RoundEngine, StageDrain
from repro.runtime.telemetry import RoundReport


class AsyncRoundEngine:
    """Drives a :class:`RoundEngine`'s rounds as awaitable stages."""

    def __init__(self, engine: RoundEngine) -> None:
        self.engine = engine
        self._lock: asyncio.Lock | None = None
        self.stages_driven = 0

    def _engine_lock(self) -> asyncio.Lock:
        # Created lazily so the engine can be built outside any event loop.
        if self._lock is None:
            self._lock = asyncio.Lock()
        return self._lock

    async def run_round(
        self,
        round_id: int,
        participants: Iterable[str],
        values_by_user: Mapping[str, Sequence[float]],
        features: Sequence,
        **kwargs: Any,
    ) -> RoundReport:
        """Run one round cooperatively; same signature as the sync engine.

        Yields to the event loop at every stage boundary the generator
        exposes.  Rounds on the same engine serialize on a lock (engine
        state is per-round-at-a-time); rounds on different engines — the
        multi-tenant case — interleave stage by stage.
        """
        async with self._engine_lock():
            stages = self.engine.round_stages(
                round_id, participants, values_by_user, features, **kwargs
            )
            drain = StageDrain(stages)
            for _stage in drain:
                self.stages_driven += 1
                await asyncio.sleep(0)
            return drain.report

    def run_round_sync(self, *args: Any, **kwargs: Any) -> RoundReport:
        """Drive one round through a private event loop, synchronously.

        This is the compatibility shim that lets every existing harness —
        chaos schedules, Byzantine attack mixes, parity suites — exercise
        the async path without rewriting a line: same call shape, same
        return, same exceptions, but every stage transition went through
        the event loop.
        """
        return asyncio.run(self.run_round(*args, **kwargs))


def install_async_drive(engine: RoundEngine) -> AsyncRoundEngine:
    """Make ``engine.run_round`` drive rounds through the event loop.

    Returns the :class:`AsyncRoundEngine` (whose ``stages_driven`` counter
    lets callers assert the async path actually ran).
    """
    driver = AsyncRoundEngine(engine)
    engine.run_round = driver.run_round_sync
    return driver

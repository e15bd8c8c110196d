"""On-path network adversaries.

The paper's trust boundary (Figure 2) assumes the network between client and
service is hostile.  Experiments interpose these adversaries on the
simulated transport to check that each protocol stops what it claims to
stop: tampered contributions fail signature checks, replays fail sequence
checks, and eavesdropping on secure channels yields only ciphertext.

Every adversary implements :meth:`NetworkAdversary.process`, returning
either a (possibly modified) message or ``None`` to drop it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.crypto.drbg import HmacDrbg
from repro.network.message import Message


class NetworkAdversary:
    """Base adversary: observes everything, changes nothing."""

    def process(self, message: Message) -> Message | None:
        """Inspect/modify/drop a message in flight."""
        return message


class EavesdropAdversary(NetworkAdversary):
    """Records every message it sees (the honest-but-curious network)."""

    def __init__(self) -> None:
        self.captured: list[Message] = []

    def process(self, message: Message) -> Message | None:
        self.captured.append(message)
        return message

    def captured_payloads(self, kind: str | None = None) -> list[Any]:
        return [
            m.payload for m in self.captured if kind is None or m.kind == kind
        ]


class DropAdversary(NetworkAdversary):
    """Drops messages, either by kind or with probability ``drop_rate``.

    Pass ``rng`` to make the adversary part of a replay-deterministic
    composition: every probabilistic drop then comes from the injected
    DRBG stream, so the same seeds reproduce the same drop sequence no
    matter what other adversaries (link conditions, replay) share the
    chain.  The fallback RNG exists only for standalone convenience —
    it is seeded from a module constant, so two default-constructed
    instances draw *identical* streams and compositions built from them
    are not independent.  Harnesses must inject.
    """

    def __init__(
        self,
        drop_rate: float = 0.0,
        drop_kinds: set[str] | None = None,
        rng: HmacDrbg | None = None,
    ) -> None:
        self.drop_rate = drop_rate
        self.drop_kinds = drop_kinds or set()
        self._rng = rng or HmacDrbg(b"drop-adversary")
        self.dropped = 0

    def process(self, message: Message) -> Message | None:
        if message.kind in self.drop_kinds or self._rng.uniform() < self.drop_rate:
            self.dropped += 1
            return None
        return message


class ReplayAdversary(NetworkAdversary):
    """Records messages of a kind and can replay them later.

    Replay is *active*: call :meth:`replay_into` with the network to
    re-deliver a captured message verbatim (the attack path — an
    ``attempt == 1`` copy that must trip the strict replay checks).

    With an injected ``rng`` and a ``replay_rate``, the adversary also
    replays *autonomously*: after :meth:`attach`, each recorded-kind
    message has ``replay_rate`` probability of queuing a stale
    re-delivery of an earlier capture (chosen by the DRBG) through the
    network's redelivery queue.  Autonomous replays carry ``attempt + 1``
    — they model a duplicating/reordering network exercising handler
    idempotency, and because both the firing decision and the victim
    selection come from the injected stream, composition with other
    DRBG-injected adversaries stays replay-deterministic.
    """

    def __init__(
        self,
        target_kinds: set[str] | None = None,
        rng: HmacDrbg | None = None,
        replay_rate: float = 0.0,
    ) -> None:
        self.target_kinds = target_kinds
        self.recorded: list[Message] = []
        self._rng = rng
        self.replay_rate = float(replay_rate)
        self._network = None
        self.auto_replayed = 0

    def attach(self, network: "Any") -> None:
        """Give the adversary a redelivery queue for autonomous replays."""
        self._network = network

    def process(self, message: Message) -> Message | None:
        if self.target_kinds is None or message.kind in self.target_kinds:
            self.recorded.append(message)
            if (
                self._network is not None
                and self._rng is not None
                and self.replay_rate > 0.0
                and self._rng.uniform() < self.replay_rate
            ):
                victim = self.recorded[self._rng.randint(len(self.recorded))]
                self._network.enqueue_redelivery(
                    replace(victim, attempt=victim.attempt + 1)
                )
                self.auto_replayed += 1
        return message

    def replay_into(self, network: "Any", index: int = -1) -> Any:
        """Re-send a recorded message through the network."""
        if not self.recorded:
            raise ValueError("nothing recorded to replay")
        message = self.recorded[index]
        return network.deliver_raw(message)

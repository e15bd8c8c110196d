"""Attack kinds, attack specs, and samplable Byzantine attack plans.

Where :mod:`repro.faults` models an *environment* that fails (drops,
crashes, seal loss), this module models *parties* that lie.  An attack
**kind** names a Byzantine behaviour of one protocol role; an
:class:`AttackSpec` pins a kind to a target (a client id, for client
attacks) and optionally to one round; an :class:`AttackPlan` bundles the
specs for one run and can be **sampled** deterministically from a DRBG —
the same seed always yields the same attacker mix, so every chaos
schedule replays bit-for-bit.  Plans are plain data and compose freely
with a :class:`~repro.faults.FaultPlan`: the same round can lose messages
*and* host an equivocating client.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.crypto.drbg import HmacDrbg

# Client attack kinds --------------------------------------------------------
ATTACK_REPLAY = "client.replay"
"""Submit a genuinely signed contribution twice (same nonce, fresh send)."""

ATTACK_EQUIVOCATE = "client.equivocate"
"""Submit a second, different contribution for an already-filled slot."""

ATTACK_FLOOD = "client.flood"
"""Spray forged submissions until the flooding threshold trips."""

ATTACK_FORGE = "client.forge"
"""Submit one self-signed contribution without any Glimmer (Figure 1d)."""

# Blinding-service attack kinds ---------------------------------------------
ATTACK_BLINDER_TAMPER_DELIVERY = "blinder.tamper-delivery"
"""Deliver a mask to one client that differs from the committed one."""

ATTACK_BLINDER_TAMPER_REVEAL = "blinder.tamper-reveal"
"""Reveal a dropout-repair mask that differs from the committed one."""

ATTACK_BLINDER_FORGED_CLAIMS = "blinder.forged-claims"
"""Publish a non-sum-zero mask family behind forged sum-zero claims."""

ATTACK_BLINDER_WITHHOLD_COMMITMENTS = "blinder.withhold-commitments"
"""Ack the round open without publishing the commitment set."""

ATTACK_BLINDER_BARE_REVEAL = "blinder.bare-reveal"
"""Reveal tampered dropout-repair words with no opening to check them by."""

# Aggregation-service attack kinds ------------------------------------------
ATTACK_SERVICE_CORRUPT = "service.corrupt-aggregate"
"""Return a finalize result whose aggregate was perturbed."""

ATTACK_SERVICE_OMIT = "service.omit-contribution"
"""Drop one accepted contribution from the result's audit trail."""

ATTACK_SERVICE_DUPLICATE = "service.duplicate-contribution"
"""Count one accepted contribution twice in the result's audit trail."""

ATTACK_SERVICE_MISCOUNT = "service.miscount"
"""Report a contribution count that does not match the aggregated set."""

ATTACK_SERVICE_STRIP_TRAIL = "service.strip-audit-trail"
"""Perturb the aggregate and return it with an empty audit trail."""

CLIENT_ATTACKS: tuple[str, ...] = (
    ATTACK_REPLAY,
    ATTACK_EQUIVOCATE,
    ATTACK_FLOOD,
    ATTACK_FORGE,
)

BLINDER_ATTACKS: tuple[str, ...] = (
    ATTACK_BLINDER_TAMPER_DELIVERY,
    ATTACK_BLINDER_TAMPER_REVEAL,
    ATTACK_BLINDER_FORGED_CLAIMS,
    ATTACK_BLINDER_WITHHOLD_COMMITMENTS,
    ATTACK_BLINDER_BARE_REVEAL,
)

SERVICE_ATTACKS: tuple[str, ...] = (
    ATTACK_SERVICE_CORRUPT,
    ATTACK_SERVICE_OMIT,
    ATTACK_SERVICE_DUPLICATE,
    ATTACK_SERVICE_MISCOUNT,
    ATTACK_SERVICE_STRIP_TRAIL,
)

ALL_ATTACKS: tuple[str, ...] = CLIENT_ATTACKS + BLINDER_ATTACKS + SERVICE_ATTACKS


@dataclass(frozen=True)
class AttackSpec:
    """One Byzantine behaviour: ``kind``, optionally pinned to a target/round.

    ``target`` is a client id for client attacks and ignored for blinder
    and service attacks (those roles are singletons).  ``round_id`` of
    ``None`` means the attack applies in every round of the run.
    """

    kind: str
    target: str | None = None
    round_id: int | None = None

    def applies(self, round_id: int) -> bool:
        return self.round_id is None or self.round_id == round_id


@dataclass(frozen=True)
class AttackPlan:
    """The attacker mix for one run: who lies, and how.

    At most one blinder attack and one service attack are honoured per
    plan (the roles are singletons); any number of distinct clients can
    misbehave.  Pair a plan with a deployment via
    :func:`repro.byzantine.harness.install_attacks`.
    """

    specs: tuple[AttackSpec, ...] = ()
    label: str = ""

    @property
    def is_benign(self) -> bool:
        return not self.specs

    def client_attack(self, round_id: int, client_id: str) -> AttackSpec | None:
        """The first client attack targeting ``client_id`` in this round."""
        for spec in self.specs:
            if (
                spec.kind in CLIENT_ATTACKS
                and spec.target == client_id
                and spec.applies(round_id)
            ):
                return spec
        return None

    def blinder_attack(self, round_id: int | None = None) -> AttackSpec | None:
        for spec in self.specs:
            if spec.kind in BLINDER_ATTACKS and (
                round_id is None or spec.applies(round_id)
            ):
                return spec
        return None

    def service_attack(self, round_id: int | None = None) -> AttackSpec | None:
        for spec in self.specs:
            if spec.kind in SERVICE_ATTACKS and (
                round_id is None or spec.applies(round_id)
            ):
                return spec
        return None

    @classmethod
    def sample(
        cls,
        rng: HmacDrbg,
        clients: Sequence[str],
        rounds: Sequence[int] = (),
        max_client_attackers: int = 2,
        blinder_rate: float = 0.3,
        service_rate: float = 0.3,
        label: str = "",
    ) -> "AttackPlan":
        """Draw a random-but-reproducible attacker mix.

        Between zero and ``max_client_attackers`` distinct clients get a
        random client attack each; independently, the blinding service
        turns Byzantine with probability ``blinder_rate`` and the
        aggregator with ``service_rate``.  Pinning specs to ``rounds``
        (when given) keeps multi-round runs from re-firing one-shot
        attacker mixes every round.
        """
        specs: list[AttackSpec] = []
        pool = list(clients)
        count = min(len(pool), rng.randint(max_client_attackers + 1))
        for _ in range(count):
            target = rng.choice(pool)
            pool.remove(target)
            specs.append(
                AttackSpec(
                    kind=rng.choice(list(CLIENT_ATTACKS)),
                    target=target,
                    round_id=rng.choice(list(rounds)) if rounds else None,
                )
            )
        if rng.uniform() < blinder_rate:
            specs.append(
                AttackSpec(
                    kind=rng.choice(list(BLINDER_ATTACKS)),
                    round_id=rng.choice(list(rounds)) if rounds else None,
                )
            )
        if rng.uniform() < service_rate:
            specs.append(
                AttackSpec(
                    kind=rng.choice(list(SERVICE_ATTACKS)),
                    round_id=rng.choice(list(rounds)) if rounds else None,
                )
            )
        return cls(specs=tuple(specs), label=label)

"""Deterministic degraded-link conditions for flaky device fleets.

The §4.2 deployment the paper sketches — thousands of heterogeneous
devices proxying through a hosted Glimmer — does not run over the polite
transport the early experiments assume.  Radios fade, cellular links
burst-drop, NATs partition, devices disconnect and rejoin, clocks skew,
and firmware versions drift.  This module models that weather as data:

* a :class:`ConditionProfile` names a climate (``urban-wifi``,
  ``cellular-edge``, ``hostile``) as sampling ranges;
* :func:`sample_fleet_plan` draws one fully deterministic
  :class:`FleetPlan` from ``(seed, index, profile)`` — per-client
  :class:`LinkSchedule` biographies (loss bursts, latency spikes,
  partition and disconnect episodes, duplicate deliveries, clock skew,
  firmware-version skew) plus the policy-epoch bumps the attestation
  session layer must survive.  The same coordinates always yield the
  same plan, so every chaotic fleet run is replayable bit for bit;
* :class:`LinkConditions` is a :class:`~repro.network.adversary.
  NetworkAdversary` that *executes* a plan on the wire: it drops, delays,
  duplicates, skews, and — for firmware-skewed devices — perturbs
  submissions in ways the checks ``SignedContribution`` declares must
  catch when the service decodes them, so a corrupted contribution
  becomes attributable Byzantine evidence rather than silent aggregate
  poison.

Only traffic to or from a *scheduled* client endpoint is affected;
engine ↔ service ↔ blinder legs pass untouched.  Duplicates are
re-deliveries of the same logical send (``attempt + 1``), queued through
:meth:`repro.network.transport.Network.enqueue_redelivery` so they land
*after* the original and exercise the handlers' idempotency caches —
modeling a duplicating network, not an attacker forging fresh replays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro.crypto.drbg import HmacDrbg
from repro.network.message import Message
from repro.network.adversary import NetworkAdversary
from repro.network.transport import REPLY_SUFFIX

_CLIENT_PREFIX = "client:"
_SUBMIT_KIND = "contribution/submit"

__all__ = [
    "ConditionProfile",
    "Episode",
    "LinkSchedule",
    "FleetPlan",
    "LinkConditions",
    "PROFILES",
    "URBAN_WIFI",
    "CELLULAR_EDGE",
    "HOSTILE",
    "resolve_profile",
    "sample_fleet_plan",
]


@dataclass(frozen=True)
class ConditionProfile:
    """Sampling ranges for one fleet climate.

    Rates are per-message (bursts, spikes, duplicates) or per-client
    (partition/disconnect/firmware-skew membership); ``(lo, hi)`` pairs
    are uniform sampling ranges.  ``ambient_drop_rate`` and
    ``replay_rate`` parameterize the *composed* classic adversaries
    (:class:`~repro.network.adversary.DropAdversary` /
    :class:`~repro.network.adversary.ReplayAdversary`) the fleet harness
    interposes alongside the link conditions; ``epoch_bump_rate`` is the
    per-round probability that the verifier bumps its quote-policy
    epoch, forcing full re-attestation.
    """

    name: str
    extra_latency_ms: tuple[float, float]
    jitter_ms: float
    spike_rate: float
    spike_ms: tuple[float, float]
    burst_start_rate: float
    burst_length: tuple[int, int]
    duplicate_rate: float
    partition_member_rate: float
    partition_episodes: tuple[int, int]
    partition_ms: tuple[float, float]
    disconnect_member_rate: float
    disconnect_episodes: tuple[int, int]
    disconnect_ms: tuple[float, float]
    clock_skew_ms: tuple[float, float]
    firmware_skew_rate: float
    firmware_perturb_rate: float
    ambient_drop_rate: float
    replay_rate: float
    epoch_bump_rate: float


URBAN_WIFI = ConditionProfile(
    name="urban-wifi",
    extra_latency_ms=(5.0, 30.0),
    jitter_ms=10.0,
    spike_rate=0.05,
    spike_ms=(50.0, 150.0),
    burst_start_rate=0.02,
    burst_length=(1, 3),
    duplicate_rate=0.02,
    partition_member_rate=0.2,
    partition_episodes=(1, 1),
    partition_ms=(200.0, 600.0),
    disconnect_member_rate=0.15,
    disconnect_episodes=(1, 1),
    disconnect_ms=(300.0, 900.0),
    clock_skew_ms=(-50.0, 50.0),
    firmware_skew_rate=0.15,
    firmware_perturb_rate=0.2,
    ambient_drop_rate=0.01,
    replay_rate=0.02,
    epoch_bump_rate=0.05,
)

CELLULAR_EDGE = ConditionProfile(
    name="cellular-edge",
    extra_latency_ms=(20.0, 120.0),
    jitter_ms=40.0,
    spike_rate=0.12,
    spike_ms=(150.0, 600.0),
    burst_start_rate=0.05,
    burst_length=(2, 6),
    duplicate_rate=0.05,
    partition_member_rate=0.3,
    partition_episodes=(1, 2),
    partition_ms=(400.0, 1200.0),
    disconnect_member_rate=0.3,
    disconnect_episodes=(1, 2),
    disconnect_ms=(500.0, 1500.0),
    clock_skew_ms=(-200.0, 200.0),
    firmware_skew_rate=0.25,
    firmware_perturb_rate=0.3,
    ambient_drop_rate=0.02,
    replay_rate=0.04,
    epoch_bump_rate=0.1,
)

HOSTILE = ConditionProfile(
    name="hostile",
    extra_latency_ms=(40.0, 250.0),
    jitter_ms=80.0,
    spike_rate=0.2,
    spike_ms=(300.0, 1200.0),
    burst_start_rate=0.08,
    burst_length=(3, 8),
    duplicate_rate=0.1,
    partition_member_rate=0.45,
    partition_episodes=(1, 3),
    partition_ms=(600.0, 2000.0),
    disconnect_member_rate=0.4,
    disconnect_episodes=(1, 2),
    disconnect_ms=(800.0, 2500.0),
    clock_skew_ms=(-1000.0, 1000.0),
    firmware_skew_rate=0.3,
    firmware_perturb_rate=0.4,
    ambient_drop_rate=0.04,
    replay_rate=0.08,
    epoch_bump_rate=0.25,
)

PROFILES: dict[str, ConditionProfile] = {
    profile.name: profile for profile in (URBAN_WIFI, CELLULAR_EDGE, HOSTILE)
}


def resolve_profile(profile: str | ConditionProfile) -> ConditionProfile:
    """Accept either a profile name or a profile object."""
    if isinstance(profile, ConditionProfile):
        return profile
    try:
        return PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown condition profile {profile!r}; "
            f"known: {sorted(PROFILES)}"
        ) from None


@dataclass(frozen=True)
class Episode:
    """A half-open offline window, in ms relative to the plan epoch."""

    start_ms: float
    end_ms: float

    def covers(self, rel_ms: float) -> bool:
        return self.start_ms <= rel_ms < self.end_ms


@dataclass(frozen=True)
class LinkSchedule:
    """One client's fully sampled link biography for a schedule."""

    client_id: str
    extra_latency_ms: float
    jitter_ms: float
    spike_rate: float
    spike_ms: tuple[float, float]
    burst_start_rate: float
    burst_length: tuple[int, int]
    duplicate_rate: float
    partitions: tuple[Episode, ...]
    disconnects: tuple[Episode, ...]
    clock_skew_ms: float
    firmware_skew: bool
    firmware_perturb_rate: float

    def partitioned_at(self, rel_ms: float) -> bool:
        return any(episode.covers(rel_ms) for episode in self.partitions)

    def disconnected_at(self, rel_ms: float) -> bool:
        return any(episode.covers(rel_ms) for episode in self.disconnects)

    def offline_at(self, rel_ms: float) -> bool:
        return self.partitioned_at(rel_ms) or self.disconnected_at(rel_ms)

    def describe(self) -> tuple:
        """A canonical, comparable fingerprint of this schedule."""
        return (
            self.client_id,
            round(self.extra_latency_ms, 6),
            round(self.clock_skew_ms, 6),
            tuple((e.start_ms, e.end_ms) for e in self.partitions),
            tuple((e.start_ms, e.end_ms) for e in self.disconnects),
            self.firmware_skew,
        )


@dataclass(frozen=True)
class FleetPlan:
    """A replayable fleet schedule: per-client links + policy-epoch bumps."""

    profile: str
    label: str
    horizon_ms: float
    links: Mapping[str, LinkSchedule]
    epoch_bumps: tuple[int, ...]
    """Round ordinals (0-based within the schedule) at which the
    verifier bumps its quote-policy epoch, invalidating every
    outstanding session ticket."""

    def schedule_for(self, client_id: str) -> LinkSchedule | None:
        return self.links.get(client_id)

    def describe(self) -> tuple:
        """A canonical fingerprint; equal plans ⇔ equal fingerprints."""
        return (
            self.profile,
            self.label,
            self.horizon_ms,
            tuple(self.links[c].describe() for c in sorted(self.links)),
            self.epoch_bumps,
        )


def _span(rng: HmacDrbg, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.uniform()


def _episodes(
    rng: HmacDrbg,
    member_rate: float,
    count_range: tuple[int, int],
    length_range: tuple[float, float],
    horizon_ms: float,
) -> tuple[Episode, ...]:
    if rng.uniform() >= member_rate:
        return ()
    lo, hi = count_range
    count = lo + (rng.randint(hi - lo + 1) if hi > lo else 0)
    episodes = []
    for _ in range(count):
        length = _span(rng, *length_range)
        start = rng.uniform() * max(horizon_ms - length, 1.0)
        episodes.append(Episode(start_ms=start, end_ms=start + length))
    return tuple(sorted(episodes, key=lambda e: e.start_ms))


def sample_fleet_plan(
    seed: bytes,
    index: int,
    profile: str | ConditionProfile,
    clients: Sequence[str],
    *,
    rounds: int = 4,
    horizon_ms: float = 8000.0,
) -> FleetPlan:
    """Draw one fully replayable fleet schedule.

    The same ``(seed, index, profile, clients)`` always produces the
    same plan: each client's schedule comes from its own forked DRBG
    stream (keyed by client id), so plans are also stable under cohort
    reordering.  Firmware skew is capped at a third of the cohort —
    skewed devices end up quarantined as Byzantine once they emit a
    malformed submission, and a mostly-skewed fleet could not finalize
    anything.
    """
    resolved = resolve_profile(profile)
    root = HmacDrbg(
        seed, personalization=f"fleet-plan:{resolved.name}:{index}"
    )
    links: dict[str, LinkSchedule] = {}
    skewed_budget = max(1, len(clients) // 3)
    skewed = 0
    for client_id in sorted(clients):
        rng = root.fork(f"link:{client_id}")
        firmware_skew = (
            skewed < skewed_budget
            and rng.uniform() < resolved.firmware_skew_rate
        )
        if firmware_skew:
            skewed += 1
        links[client_id] = LinkSchedule(
            client_id=client_id,
            extra_latency_ms=_span(rng, *resolved.extra_latency_ms),
            jitter_ms=resolved.jitter_ms,
            spike_rate=resolved.spike_rate,
            spike_ms=resolved.spike_ms,
            burst_start_rate=resolved.burst_start_rate,
            burst_length=resolved.burst_length,
            duplicate_rate=resolved.duplicate_rate,
            partitions=_episodes(
                rng,
                resolved.partition_member_rate,
                resolved.partition_episodes,
                resolved.partition_ms,
                horizon_ms,
            ),
            disconnects=_episodes(
                rng,
                resolved.disconnect_member_rate,
                resolved.disconnect_episodes,
                resolved.disconnect_ms,
                horizon_ms,
            ),
            clock_skew_ms=_span(rng, *resolved.clock_skew_ms),
            firmware_skew=firmware_skew,
            firmware_perturb_rate=resolved.firmware_perturb_rate,
        )
    bump_rng = root.fork("epoch-bumps")
    epoch_bumps = tuple(
        r for r in range(rounds) if bump_rng.uniform() < resolved.epoch_bump_rate
    )
    label = f"{seed.decode('utf-8', 'replace')}#{index}@{resolved.name}"
    return FleetPlan(
        profile=resolved.name,
        label=label,
        horizon_ms=float(horizon_ms),
        links=links,
        epoch_bumps=epoch_bumps,
    )


def _client_of(message: Message) -> str | None:
    """The client party a message belongs to (sender wins over receiver)."""
    for endpoint in (message.sender, message.receiver):
        if endpoint.startswith(_CLIENT_PREFIX):
            return endpoint[len(_CLIENT_PREFIX):]
    return None


class LinkConditions(NetworkAdversary):
    """Executes a :class:`FleetPlan` as an on-path network condition.

    Interpose on the :class:`~repro.network.transport.Network` *and*
    call :meth:`attach` with it (duplicates need the redelivery queue).
    All randomness comes from the injected DRBG, forked per client, so
    the conditions compose replay-deterministically with any other
    DRBG-injected adversary on the chain.  :meth:`calm` ends the storm:
    a calmed instance passes every message untouched, which is how the
    fleet harness models weather that eventually clears.
    """

    def __init__(self, plan: FleetPlan, clock, rng: HmacDrbg) -> None:
        self.plan = plan
        self.clock = clock
        self.epoch_ms = clock.now_ms()
        self._rngs = {
            client_id: rng.fork(f"conditions:{client_id}")
            for client_id in sorted(plan.links)
        }
        self._burst_left: dict[str, int] = {}
        self._network = None
        self._calm = False
        # Observability counters (all deterministic, all replay-comparable).
        self.offline_drops = 0
        self.burst_drops = 0
        self.duplicates = 0
        self.spikes = 0
        self.skewed_clock = 0
        self.perturbed_submissions = 0
        self.delay_injected_ms = 0.0

    # ------------------------------------------------------------ lifecycle

    def attach(self, network) -> None:
        """Give the conditions a redelivery queue for duplicate delivery."""
        self._network = network

    def calm(self) -> None:
        """The weather clears: stop affecting traffic (idempotent)."""
        self._calm = True

    def counters(self) -> dict[str, float]:
        return {
            "offline_drops": self.offline_drops,
            "burst_drops": self.burst_drops,
            "duplicates": self.duplicates,
            "spikes": self.spikes,
            "skewed_clock": self.skewed_clock,
            "perturbed_submissions": self.perturbed_submissions,
            "delay_injected_ms": round(self.delay_injected_ms, 6),
        }

    # -------------------------------------------------------------- oracles

    def _rel_now(self, now_ms: float | None = None) -> float:
        now = self.clock.now_ms() if now_ms is None else now_ms
        return now - self.epoch_ms

    def offline_for(self, client_id: str, now_ms: float | None = None) -> bool:
        """Partition-awareness oracle: is this device unreachable now?

        The engine's cohort trimming consults this at phase boundaries —
        the network operator *can* observe reachability (pings fail),
        without learning anything about contribution contents.
        """
        if self._calm:
            return False
        schedule = self.plan.schedule_for(client_id)
        return schedule is not None and schedule.offline_at(self._rel_now(now_ms))

    # ------------------------------------------------------------ processing

    def process(self, message: Message) -> Message | None:
        if self._calm:
            return message
        client_id = _client_of(message)
        if client_id is None:
            return message
        schedule = self.plan.schedule_for(client_id)
        if schedule is None:
            return message
        rng = self._rngs[client_id]
        rel = self._rel_now()
        if schedule.offline_at(rel):
            self.offline_drops += 1
            return None
        left = self._burst_left.get(client_id, 0)
        if left > 0:
            self._burst_left[client_id] = left - 1
            self.burst_drops += 1
            return None
        if rng.uniform() < schedule.burst_start_rate:
            lo, hi = schedule.burst_length
            length = lo + (rng.randint(hi - lo + 1) if hi > lo else 0)
            self._burst_left[client_id] = max(length - 1, 0)
            self.burst_drops += 1
            return None
        delay = schedule.extra_latency_ms + rng.uniform() * schedule.jitter_ms
        if rng.uniform() < schedule.spike_rate:
            delay += _span(rng, *schedule.spike_ms)
            self.spikes += 1
        self.delay_injected_ms += delay
        self.clock.advance(delay)
        if (
            self._network is not None
            and not message.kind.endswith(REPLY_SUFFIX)
            and rng.uniform() < schedule.duplicate_rate
        ):
            # A duplicating network re-delivers the same logical send;
            # attempt + 1 marks it as such, so idempotent handlers answer
            # from cache instead of double-executing.  Queued, not
            # delivered inline: the copy must land *after* the original.
            self._network.enqueue_redelivery(
                replace(message, attempt=message.attempt + 1)
            )
            self.duplicates += 1
        message = self._skewed(message, schedule, rng)
        return message

    def _skewed(
        self, message: Message, schedule: LinkSchedule, rng: HmacDrbg
    ) -> Message:
        """Apply clock skew and (for skewed firmware) wire perturbation."""
        if message.sender.startswith(_CLIENT_PREFIX):
            if schedule.clock_skew_ms:
                skewed_at = max(
                    0.0, message.sent_at_ms + schedule.clock_skew_ms
                )
                message = replace(message, sent_at_ms=skewed_at)
                self.skewed_clock += 1
            if (
                schedule.firmware_skew
                and message.kind == _SUBMIT_KIND
                and rng.uniform() < schedule.firmware_perturb_rate
            ):
                perturbed = self._perturb_submission(message, rng)
                if perturbed is not None:
                    self.perturbed_submissions += 1
                    message = perturbed
        return message

    def _perturb_submission(
        self, message: Message, rng: HmacDrbg
    ) -> Message | None:
        """Mutate a submission the way skewed firmware would.

        Every mutation fails a check at the service's wire — one
        ``SignedContribution`` declares, or, for a torn payload, its words'
        one spelling at the round's width, which the service's admission
        holds them to — so the service refuses it as attributable Byzantine
        evidence and the slot degrades into §3 dropout repair — corruption
        is *detected*, never silently aggregated.
        """
        payload = message.payload
        contribution = getattr(payload, "contribution", None)
        if contribution is None:
            return None
        mutation = rng.choice(("nonce", "ring", "confidence"))
        try:
            if mutation == "nonce":
                mutated = replace(
                    contribution, nonce=contribution.nonce + b"\xff"
                )
            elif mutation == "ring" and contribution.ring_payload:
                # A torn final word: at 16 bits a word or more, one byte
                # short of k words is no spelling of any count.
                mutated = replace(
                    contribution, ring_payload=contribution.ring_payload[:-1]
                )
            else:
                mutated = replace(contribution, confidence=float("nan"))
            return replace(message, payload=replace(payload, contribution=mutated))
        except TypeError:
            return None

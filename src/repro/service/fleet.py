"""The flaky-fleet chaos harness: link weather, sessions, exact rounds.

One *fleet schedule* is the complete biography of a device cohort under
degraded network weather: a :func:`~repro.network.conditions.
sample_fleet_plan` decides every client's loss bursts, latency spikes,
partition and disconnect episodes, duplicate deliveries, clock skew, and
firmware-version skew — plus the quote-policy epoch bumps the
attestation session layer must survive.  :func:`run_fleet_schedule`
plays that schedule against a fresh deployment:

* the :class:`~repro.network.conditions.LinkConditions` adversary
  executes the plan on the wire, composed with a DRBG-injected ambient
  :class:`~repro.network.adversary.DropAdversary` and an autonomous
  :class:`~repro.network.adversary.ReplayAdversary`;
* the engine runs every round with adaptive deadlines, hedged
  re-delivery, and partition-aware cohort trimming
  (:class:`~repro.runtime.deadlines.AdaptiveDeadlines` +
  :meth:`~repro.runtime.engine.RoundEngine.attach_conditions`);
* attestation is per *session*: a device's first mask delivery is a
  full attested one and opens a session in the blinding service's table
  (:attr:`~repro.core.provisioning.BlinderProvisioner.sessions`); later
  rounds ride it — through disconnects and rejoins — and the device pays
  another full quote-verify only after the schedule bumps that table's
  policy epoch, or when its session is otherwise refused;
* a round the weather manages to abort is retried once after the storm
  clears (conditions calmed, adversaries removed) under a fresh round
  id — *recovered*, in the report's terms.

Invariants checked per schedule (``AssertionError`` on violation):

* **exact-or-recovered** — every finalized round is judged exact by
  :func:`repro.invariants.judge`;
* **zero undetected corruption** — firmware-skew perturbations never
  reach an aggregate: a perturbed submission is rejected by wire
  validation and its sender quarantined, which that judgement would
  otherwise expose;
* **replayability** — the returned ``signature`` tuple is a pure
  function of ``(seed, index, profile)``; the chaos tests compare two
  independent runs directly.

The report also carries the session economics (full verifications,
cache hits, resumptions, rejoins) that the sublinear-re-attestation
assertion in :mod:`tests.chaos.test_fleet_chaos` aggregates.
"""

from __future__ import annotations

import numpy as np

from repro import invariants
from repro.crypto.drbg import HmacDrbg
from repro.errors import RoundAbortedError
from repro.experiments.common import Deployment
from repro.network.adversary import DropAdversary, ReplayAdversary
from repro.network.conditions import (
    ConditionProfile,
    LinkConditions,
    resolve_profile,
    sample_fleet_plan,
)
from repro.runtime import messages as m
from repro.runtime.deadlines import AdaptiveDeadlines

__all__ = ["run_fleet_schedule"]

#: Round ids for storm-cleared retries start here (well clear of the
#: scheduled ids, which count up from 1).
_RECOVERY_BASE = 1000


def run_fleet_schedule(
    *,
    seed: bytes,
    index: int,
    profile: str | ConditionProfile,
    num_users: int = 6,
    sentences_per_user: int = 3,
    max_features: int | None = 8,
    rounds: int = 4,
    adaptive: AdaptiveDeadlines | None = None,
) -> dict:
    """Run one fleet schedule to convergence; returns its report.

    Deterministic end to end: the same ``(seed, index, profile)`` builds
    the same deployment, samples the same plan, and produces the same
    ``signature``.  Raises :class:`AssertionError` if any invariant is
    violated; :class:`RoundAbortedError` only if even the storm-cleared
    retry of a round cannot finalize (which would itself be a bug).
    """
    resolved = resolve_profile(profile)
    if adaptive is None:
        adaptive = AdaptiveDeadlines()
    label_seed = f"{seed.decode('utf-8', 'replace')}#{index}@{resolved.name}"

    deployment = Deployment.build(
        num_users=num_users,
        seed=seed + f":fleet:{index}:{resolved.name}".encode("utf-8"),
        sentences_per_user=sentences_per_user,
        max_features=max_features,
    )
    users = sorted(deployment.clients)
    vectors = deployment.local_vectors(users)
    features = deployment.features.bigrams
    plan = sample_fleet_plan(seed, index, resolved, users, rounds=rounds)

    conditions = LinkConditions(
        plan,
        deployment.network.clock,
        HmacDrbg(seed, personalization=f"fleet-conditions:{resolved.name}:{index}"),
    )
    conditions.attach(deployment.network)
    ambient = DropAdversary(
        drop_rate=resolved.ambient_drop_rate,
        rng=HmacDrbg(seed, personalization=f"fleet-drop:{resolved.name}:{index}"),
    )
    replayer = ReplayAdversary(
        target_kinds={m.KIND_PROVISION_MASK, m.KIND_CONTRIBUTE, m.KIND_SUBMIT},
        rng=HmacDrbg(seed, personalization=f"fleet-replay:{resolved.name}:{index}"),
        replay_rate=resolved.replay_rate,
    )
    replayer.attach(deployment.network)
    deployment.network.interpose(conditions)
    deployment.network.interpose(ambient)
    deployment.network.interpose(replayer)
    deployment.engine.attach_conditions(conditions)

    sessions = deployment.blinder_provisioner.sessions
    online_before: dict[str, bool] = {}
    rejoins = 0
    rounds_recovered = 0
    stormy = True
    round_reports = []
    per_round: list[tuple] = []

    def _calm_everything() -> None:
        nonlocal stormy
        if not stormy:
            return
        stormy = False
        conditions.calm()
        deployment.network.clear_adversaries()
        deployment.engine.attach_conditions(None)

    for ordinal in range(rounds):
        if ordinal in plan.epoch_bumps:
            sessions.bump_policy_epoch()

        # A device reachable again after an episode offline rejoins — in
        # the session it already holds.
        now = deployment.network.clock.now_ms()
        for user_id in users:
            online = not (stormy and conditions.offline_for(user_id, now))
            if online and online_before.get(user_id) is False:
                rejoins += 1
            online_before[user_id] = online

        round_id = ordinal + 1
        try:
            report = deployment.engine.run_round(
                round_id,
                users,
                vectors,
                features,
                adaptive=adaptive if stormy else None,
            )
        except RoundAbortedError:
            deployment.engine.abandon_round(round_id)
            # The storm won this round.  Weather eventually clears; the
            # recovered round must then finalize exactly.
            _calm_everything()
            rounds_recovered += 1
            report = deployment.engine.run_round(
                _RECOVERY_BASE + round_id, users, vectors, features
            )

        assert invariants.judge(report, deployment.codec, vectors).exact, (
            f"{label_seed}: round {report.round_id} aggregate is not the "
            f"codec-exact mean over its accepted participants"
        )
        round_reports.append(report)
        per_round.append(
            (
                report.round_id,
                tuple(sorted(report.outcomes.items())),
                tuple(float(v) for v in np.asarray(report.aggregate).ravel()),
                report.masks_repaired,
                report.late_replies_discarded,
                report.hedged_deliveries,
                report.partition_trimmed,
                report.submissions_reconciled,
            )
        )

    quarantined = sorted(
        {user for report in round_reports for user in report.quarantined}
    )
    perturbed = conditions.perturbed_submissions
    if perturbed:
        # Zero undetected corruption, stated positively: every schedule
        # that perturbed a submission rejected it (the exactness oracle
        # above passed) and blamed a firmware-skewed device.
        skewed = {
            user_id
            for user_id, link in plan.links.items()
            if link.firmware_skew
        }
        for offender in quarantined:
            client_id = offender.split(":", 1)[-1]
            assert client_id in skewed, (
                f"{label_seed}: {offender} quarantined without firmware skew"
            )

    mean_settle_ms = float(
        np.mean([report.latency_ms for report in round_reports])
    )
    counters = sessions.counters()
    return {
        "label": label_seed,
        "profile": resolved.name,
        "num_users": num_users,
        "rounds": rounds,
        "rounds_recovered": rounds_recovered,
        "rejoins": rejoins,
        "submissions_reconciled": sum(
            report.submissions_reconciled for report in round_reports
        ),
        "quarantined": quarantined,
        "perturbed_submissions": perturbed,
        "conditions": conditions.counters(),
        "ambient_dropped": ambient.dropped,
        "auto_replayed": replayer.auto_replayed,
        "redeliveries_delivered": deployment.network.redeliveries_delivered,
        "redeliveries_failed": deployment.network.redeliveries_failed,
        "sessions": counters,
        "full_attestations": counters["full_verifications"],
        "resumed": counters["resumed"],
        "epoch_bumps": counters["epoch_bumps"],
        "mean_settle_ms": mean_settle_ms,
        "calm": not stormy,
        "signature": (
            plan.describe(),
            tuple(per_round),
            tuple(sorted(conditions.counters().items())),
            tuple(sorted(counters.items())),
            ambient.dropped,
            replayer.auto_replayed,
        ),
    }

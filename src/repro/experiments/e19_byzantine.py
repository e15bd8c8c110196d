"""E19 (extension) — Byzantine availability: detect, blame, quarantine.

E18 showed the runtime is exact-or-abort when the environment *fails*;
this experiment shows the same holds when parties actively *lie*.  For
each attacker mix it installs the :mod:`repro.byzantine` actors on a
fresh deployment — attackers are endpoints on the bus — runs several
rounds with the engine's own ``run_round``, and tallies the verdicts of
:func:`repro.invariants.judge`:

* **exact finalizes** — ``clean-finalize`` / ``exact-finalize`` (a
  misbehaving client may have been evicted and its slot repaired on the
  way);
* **detected aborts** — ``detected-abort``, the only possible ending
  once the blinding service or aggregator itself cheats;
* **undetected corruption** — a finalized-but-wrong aggregate.  The
  design target, asserted by the claims table, is **zero** such rounds
  for every mix.

Rounds within a mix share one deployment, so the quarantine column also
shows the misbehaving client being excluded from every later round.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import Table
from repro.byzantine import (
    ATTACK_BLINDER_FORGED_CLAIMS,
    ATTACK_BLINDER_TAMPER_DELIVERY,
    ATTACK_BLINDER_TAMPER_REVEAL,
    ATTACK_EQUIVOCATE,
    ATTACK_FLOOD,
    ATTACK_FORGE,
    ATTACK_REPLAY,
    ATTACK_SERVICE_CORRUPT,
    ATTACK_SERVICE_OMIT,
    OUTCOME_BENIGN_ABORT,
    OUTCOME_DETECTED_ABORT,
    AttackPlan,
    AttackSpec,
    install_attacks,
    run_byzantine_round,
)
from repro.crypto.drbg import HmacDrbg
from repro.experiments.common import Deployment


@dataclass
class ByzantineAvailabilityResult:
    rows: list
    undetected_total: int

    def table(self) -> Table:
        table = Table(
            "E19 (extension): exact-or-blamed-abort under Byzantine actors",
            [
                "attacker mix",
                "rounds",
                "exact finalized",
                "detected aborts",
                "benign aborts",
                "undetected corruption",
                "violations",
                "offenders blamed",
                "quarantined",
            ],
        )
        for row in self.rows:
            table.add_row(*row)
        return table


def _mixes(user_ids, rng) -> list[tuple[str, AttackPlan]]:
    """The attacker mixes swept, from honest baseline to sampled cocktails."""
    attacker = user_ids[0]
    named = [
        ("honest baseline", AttackPlan()),
        ("forging client", (ATTACK_FORGE, attacker)),
        ("replaying client", (ATTACK_REPLAY, attacker)),
        ("equivocating client", (ATTACK_EQUIVOCATE, attacker)),
        ("flooding client", (ATTACK_FLOOD, attacker)),
        ("lying blinder: tampered delivery", (ATTACK_BLINDER_TAMPER_DELIVERY, None)),
        ("lying blinder: tampered reveal", (ATTACK_BLINDER_TAMPER_REVEAL, None)),
        ("lying blinder: non-sum-zero", (ATTACK_BLINDER_FORGED_CLAIMS, None)),
        ("tampering aggregator: corrupt", (ATTACK_SERVICE_CORRUPT, None)),
        ("tampering aggregator: omit", (ATTACK_SERVICE_OMIT, None)),
    ]
    mixes: list[tuple[str, AttackPlan]] = []
    for label, plan in named:
        if not isinstance(plan, AttackPlan):
            kind, target = plan
            plan = AttackPlan(
                specs=(AttackSpec(kind=kind, target=target),), label=label
            )
        mixes.append((label, plan))
    mixes.append(
        (
            "sampled cocktail",
            AttackPlan.sample(
                rng.fork("cocktail"), clients=user_ids, label="sampled cocktail"
            ),
        )
    )
    return mixes


def run(
    num_users: int = 5,
    rounds_per_mix: int = 4,
    seed: bytes = b"e19",
) -> ByzantineAvailabilityResult:
    rng = HmacDrbg(seed, personalization="e19")
    rows = []
    undetected_total = 0
    base = Deployment.build(
        num_users=num_users, seed=seed + b":mixes", sentences_per_user=12
    )
    mix_list = _mixes([user.user_id for user in base.corpus.users], rng)
    for label, plan in mix_list:
        deployment = Deployment.build(
            num_users=num_users,
            seed=seed + b":" + label.encode(),
            sentences_per_user=12,
        )
        user_ids = [user.user_id for user in deployment.corpus.users]
        install_attacks(deployment, plan, rng.fork(f"install:{label}"))
        exact = detected = benign = undetected = violations = 0
        offenders: set[str] = set()
        quarantined: set[str] = set()
        for round_id in range(1, rounds_per_mix + 1):
            result = run_byzantine_round(deployment, round_id, user_ids, plan)
            violations += len(result.report.violations)
            offenders.update(result.offenders)
            quarantined.update(result.report.quarantined)
            exact += result.exact
            detected += result.outcome == OUTCOME_DETECTED_ABORT
            benign += result.outcome == OUTCOME_BENIGN_ABORT
            undetected += result.corrupted
        undetected_total += undetected
        rows.append(
            (
                label,
                rounds_per_mix,
                exact,
                detected,
                benign,
                undetected,
                violations,
                ", ".join(sorted(offenders)) or "—",
                ", ".join(sorted(quarantined)) or "—",
            )
        )
    return ByzantineAvailabilityResult(rows=rows, undetected_total=undetected_total)

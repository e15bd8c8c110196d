"""Byzantine actors, attack plans, and the harness that installs and judges them.

The crash/omission fault model of :mod:`repro.faults` covers an
environment that *fails*; this package covers parties that *lie* — a
blinding service delivering or committing to masks it shouldn't, clients
replaying, equivocating, flooding, or forging, and an aggregation
service tampering with its own finalize result.  Everything is
DRBG-seeded and deterministic, and an :class:`AttackPlan` composes with
a :class:`~repro.faults.FaultPlan` on the same deployment.

Typical use::

    plan = AttackPlan.sample(rng, clients=user_ids)
    install_attacks(deployment, plan, rng)
    verdict = run_byzantine_round(deployment, round_id, user_ids, plan)
    assert verdict.outcome != OUTCOME_UNDETECTED_CORRUPTION

The ``OUTCOME_*`` verdict words are :mod:`repro.invariants`', re-exported.
"""

from repro.byzantine.actors import (
    AttackerEndpoint,
    LyingBlinder,
    TamperingAggregator,
    forged_contribution,
)
from repro.byzantine.harness import install_attacks, run_byzantine_round
from repro.invariants import (
    OUTCOME_BENIGN_ABORT,
    OUTCOME_CLEAN,
    OUTCOME_DETECTED_ABORT,
    OUTCOME_EXACT,
    OUTCOME_UNDETECTED_CORRUPTION,
)
from repro.byzantine.plan import (
    ALL_ATTACKS,
    ATTACK_BLINDER_BARE_REVEAL,
    ATTACK_BLINDER_FORGED_CLAIMS,
    ATTACK_BLINDER_TAMPER_DELIVERY,
    ATTACK_BLINDER_TAMPER_REVEAL,
    ATTACK_BLINDER_WITHHOLD_COMMITMENTS,
    ATTACK_EQUIVOCATE,
    ATTACK_FLOOD,
    ATTACK_FORGE,
    ATTACK_REPLAY,
    ATTACK_SERVICE_CORRUPT,
    ATTACK_SERVICE_DUPLICATE,
    ATTACK_SERVICE_MISCOUNT,
    ATTACK_SERVICE_OMIT,
    ATTACK_SERVICE_STRIP_TRAIL,
    BLINDER_ATTACKS,
    CLIENT_ATTACKS,
    SERVICE_ATTACKS,
    AttackPlan,
    AttackSpec,
)

__all__ = [
    "ALL_ATTACKS",
    "ATTACK_BLINDER_BARE_REVEAL",
    "ATTACK_BLINDER_FORGED_CLAIMS",
    "ATTACK_BLINDER_TAMPER_DELIVERY",
    "ATTACK_BLINDER_TAMPER_REVEAL",
    "ATTACK_BLINDER_WITHHOLD_COMMITMENTS",
    "ATTACK_EQUIVOCATE",
    "ATTACK_FLOOD",
    "ATTACK_FORGE",
    "ATTACK_REPLAY",
    "ATTACK_SERVICE_CORRUPT",
    "ATTACK_SERVICE_DUPLICATE",
    "ATTACK_SERVICE_MISCOUNT",
    "ATTACK_SERVICE_OMIT",
    "ATTACK_SERVICE_STRIP_TRAIL",
    "BLINDER_ATTACKS",
    "CLIENT_ATTACKS",
    "SERVICE_ATTACKS",
    "AttackPlan",
    "AttackSpec",
    "AttackerEndpoint",
    "LyingBlinder",
    "TamperingAggregator",
    "OUTCOME_BENIGN_ABORT",
    "OUTCOME_CLEAN",
    "OUTCOME_DETECTED_ABORT",
    "OUTCOME_EXACT",
    "OUTCOME_UNDETECTED_CORRUPTION",
    "forged_contribution",
    "install_attacks",
    "run_byzantine_round",
]

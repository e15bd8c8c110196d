"""E5 — Figures 2 & 3: the end-to-end Glimmer pipeline under attack.

This is the architecture experiment: N honest clients and one adversary run
a full blinded round through provisioned Glimmers while an eavesdropper
records everything on the wire.  We verify the two properties §2 demands:

* **Input Integrity** — every attack in the matrix (submit without a
  Glimmer, tamper after signing, replay a signed contribution, feed an
  out-of-range vector to the Glimmer, replay into the wrong round) is
  blocked, and the aggregate equals the honest mean exactly;
* **Input Confidentiality** — the inversion attacker, given everything the
  eavesdropper captured (the blinded signed payloads, attributed to their
  senders), performs at chance; given the honest plaintext vectors, it
  performs perfectly — the delta is what the Glimmer bought.

Every provisioning and submission, the attacker's included, travels as a
message over the bus via the :class:`~repro.runtime.engine.RoundEngine`,
and each blocked submission's "how" is the reason the service booked in
its rejection ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import Table
from repro.experiments.common import Deployment
from repro.federated.inversion import InversionAttacker
from repro.invariants import Verdict, judge
from repro.network.adversary import EavesdropAdversary
from repro.runtime.messages import KIND_SUBMIT, client_endpoint
from repro.runtime.telemetry import OUTCOME_ACCEPTED, OUTCOME_VALIDATION_REJECTED
from repro.workloads.text import stance_evidence


@dataclass
class PipelineResult:
    attack_rows: list
    aggregate_error: float
    inversion_on_wire: float
    inversion_on_plain: float
    num_honest: int
    verdict: Verdict

    def table(self) -> Table:
        table = Table(
            "E5 (Fig. 2+3): end-to-end pipeline — attack matrix and properties",
            ["attack", "blocked", "how"],
        )
        for row in self.attack_rows:
            table.add_row(*row)
        table.add_row(
            "— aggregate max error", self.aggregate_error < 1e-3,
            f"{self.aggregate_error:.2e}",
        )
        table.add_row(
            "— inversion on wire captures", self.inversion_on_wire < 0.75,
            f"{self.inversion_on_wire:.3f} (plaintext would give {self.inversion_on_plain:.3f})",
        )
        return table


def run(num_users: int = 8, seed: bytes = b"e5") -> PipelineResult:
    deployment = Deployment.build(num_users=num_users, seed=seed)
    engine = deployment.engine
    features = deployment.features
    service = deployment.service
    user_ids = [user.user_id for user in deployment.corpus.users]
    vectors = deployment.local_vectors()
    eavesdropper = EavesdropAdversary()
    deployment.network.interpose(eavesdropper)
    round_id = 1
    deployment.open_round(round_id, user_ids)

    for user_id in user_ids:
        outcome = engine.contribute(
            user_id, round_id, list(vectors[user_id]), features.bigrams
        )
        assert outcome == OUTCOME_ACCEPTED
    # The signed payloads, as the on-path eavesdropper captured them.
    senders = {client_endpoint(user_id): user_id for user_id in user_ids}
    signed_by_user = {}
    for message in eavesdropper.captured:
        if message.kind == KIND_SUBMIT and message.sender in senders:
            signed_by_user.setdefault(senders[message.sender], message.payload.contribution)
    wire_captures = {
        user_id: deployment.codec.decode(signed.ring_payload)
        for user_id, signed in signed_by_user.items()
    }

    def attempt(as_user, target_round, contribution):
        """Submit over the bus: (blocked, the reasons the ledger booked)."""
        ledger = service.round_state(target_round).rejected
        before = dict(ledger)
        accepted = engine.submit_signed(as_user, target_round, contribution)
        booked = [reason for reason, n in ledger.items() if n > before.get(reason, 0)]
        return not accepted, ", ".join(booked)

    attack_rows = []

    # Attack 1: bypass the Glimmer entirely.
    evil = deployment.make_client("mallory", malicious=True)
    forged = evil.bypass_glimmer(round_id, [1.0] * len(features))
    attack_rows.append(
        ("bypass glimmer (self-signed)", *attempt("mallory", round_id, forged))
    )

    # Attack 2: tamper with a genuinely signed contribution.
    tampered = evil.tamper_after_signing(signed_by_user[user_ids[0]])
    attack_rows.append(("tamper after signing", *attempt("mallory", round_id, tampered)))

    # Attack 3: replay a signed contribution.
    attack_rows.append(
        (
            "replay signed contribution",
            *attempt(user_ids[0], round_id, signed_by_user[user_ids[0]]),
        )
    )

    # Attack 4: out-of-range poison through the Glimmer.
    round2 = 2
    poison = [538.0] + [0.0] * (len(features) - 1)
    engine.open_round(round2, 1, len(features))
    engine.provision_mask("mallory", round2, 0)
    outcome = engine.contribute("mallory", round2, poison, features.bigrams)
    attack_rows.append(
        ("538 poison via glimmer", outcome == OUTCOME_VALIDATION_REJECTED, "range predicate")
    )

    # Attack 5: submit a signed contribution to the wrong round.
    attack_rows.append(
        (
            "cross-round replay",
            *attempt(user_ids[1], round2, signed_by_user[user_ids[1]]),
        )
    )

    # Properties.
    report = engine.finalize_round(round_id)
    honest_mean = np.mean(np.stack([vectors[u] for u in user_ids]), axis=0)
    aggregate_error = float(np.max(np.abs(report.aggregate - honest_mean)))
    attacker = InversionAttacker(features, stance_evidence())
    labels = deployment.corpus.labels()
    inversion_on_wire = attacker.accuracy(wire_captures, labels)
    inversion_on_plain = attacker.accuracy(vectors, labels)
    return PipelineResult(
        attack_rows=attack_rows,
        aggregate_error=aggregate_error,
        inversion_on_wire=inversion_on_wire,
        inversion_on_plain=inversion_on_plain,
        num_honest=num_users,
        verdict=judge(report, deployment.codec, vectors),
    )

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

``transport`` selects the plumbing: ``"bus"`` (default) routes every
provisioning and submission as a message through the simulated transport
via the :class:`~repro.runtime.engine.RoundEngine`; ``"direct"`` calls the
parties' methods directly.  The accept/reject matrix must be identical
either way — the runtime parity test asserts exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import Table
from repro.errors import ValidationError
from repro.experiments.common import Deployment
from repro.federated.inversion import InversionAttacker
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
    report: object = None  # RoundReport when run over the bus

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


def run(
    num_users: int = 8, seed: bytes = b"e5", transport: str = "bus"
) -> PipelineResult:
    if transport not in ("bus", "direct"):
        raise ValueError(f"unknown transport {transport!r}")
    over_bus = transport == "bus"
    deployment = Deployment.build(num_users=num_users, seed=seed)
    engine = deployment.engine
    features = deployment.features
    service = deployment.service
    user_ids = [user.user_id for user in deployment.corpus.users]
    vectors = deployment.local_vectors()
    eavesdropper = EavesdropAdversary()
    if over_bus:
        deployment.network.interpose(eavesdropper)
    round_id = 1
    deployment.open_round(round_id, user_ids)

    signed_by_user = {}
    if over_bus:
        for user_id in user_ids:
            outcome = engine.contribute(
                user_id, round_id, list(vectors[user_id]), features.bigrams
            )
            assert outcome == OUTCOME_ACCEPTED
        # The signed payloads, as the on-path eavesdropper captured them.
        for message in eavesdropper.captured:
            if message.kind != KIND_SUBMIT:
                continue
            contribution = message.payload.contribution
            for user_id in user_ids:
                if (
                    message.sender == client_endpoint(user_id)
                    and contribution.round_id == round_id
                ):
                    signed_by_user.setdefault(user_id, contribution)
    else:
        for user_id in user_ids:
            signed = deployment.clients[user_id].contribute(
                round_id, list(vectors[user_id]), features.bigrams
            )
            signed_by_user[user_id] = signed
            assert service.submit(round_id, signed)
    wire_captures = {
        user_id: deployment.codec.decode(signed.ring_payload)
        for user_id, signed in signed_by_user.items()
    }

    def submit(as_user, target_round, contribution):
        if over_bus:
            return engine.submit_signed(as_user, target_round, contribution)
        return service.submit(target_round, contribution)

    attack_rows = []

    # Attack 1: bypass the Glimmer entirely.
    evil = deployment.make_client("mallory", malicious=True)
    forged = evil.bypass_glimmer(round_id, [1.0] * len(features))
    accepted = submit("mallory", round_id, forged)
    attack_rows.append(
        ("bypass glimmer (self-signed)", not accepted, "invalid-signature")
    )

    # Attack 2: tamper with a genuinely signed contribution.
    tampered = evil.tamper_after_signing(signed_by_user[user_ids[0]])
    accepted = submit("mallory", round_id, tampered)
    attack_rows.append(("tamper after signing", not accepted, "invalid-signature"))

    # Attack 3: replay a signed contribution.
    accepted = submit(user_ids[0], round_id, signed_by_user[user_ids[0]])
    attack_rows.append(("replay signed contribution", not accepted, "replayed-nonce"))

    # Attack 4: out-of-range poison through the Glimmer.
    round2 = 2
    poison = [538.0] + [0.0] * (len(features) - 1)
    if over_bus:
        engine.open_round(round2, 1, len(features))
        engine.provision_mask("mallory", round2, 0)
        outcome = engine.contribute("mallory", round2, poison, features.bigrams)
        blocked = outcome == OUTCOME_VALIDATION_REJECTED
    else:
        deployment.blinder_provisioner.open_round(round2, 1, len(features))
        service.open_round(round2, 1)
        evil.provision_mask(deployment.blinder_provisioner, round2, 0)
        try:
            evil.poison_values(round2, poison, features.bigrams)
            blocked = False
        except ValidationError:
            blocked = True
    attack_rows.append(("538 poison via glimmer", blocked, "range predicate"))

    # Attack 5: submit a signed contribution to the wrong round.
    accepted = submit(user_ids[1], round2, signed_by_user[user_ids[1]])
    attack_rows.append(("cross-round replay", not accepted, "wrong-round"))

    # Properties.
    report = None
    if over_bus:
        report = engine.finalize_round(round_id)
        result = report.service_result
    else:
        result = service.finalize_blinded_round(round_id)
    honest_mean = np.mean(np.stack([vectors[u] for u in user_ids]), axis=0)
    aggregate_error = float(np.max(np.abs(result.aggregate - honest_mean)))
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
        report=report,
    )

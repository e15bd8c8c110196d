"""E13 (extension) — §2's consortium alternative, priced against SGX.

The paper: a consortium of privacy advocates "could, in ensemble, perform
validation and blinding ... However, the deployment cost for such a
solution would be high."  We built the ensemble
(:mod:`repro.core.consortium`) and measure what "high" means, against the
SGX Glimmer on the same workload:

* **messages per contribution** — the consortium needs one round trip per
  member plus the service submission; the SGX Glimmer needs none (local
  enclave) beyond the submission;
* **validation work** — every member re-runs the predicate (n× the
  compute), vs. once in the enclave;
* **availability** — a single unavailable member stalls a contribution
  (all mask shares are needed), measured under a member-failure sweep;
* **trust shift** — members see raw contributions; the quorum hides the
  user from the *service* but not from the consortium.  Reported as the
  count of parties that see plaintext.

Both deployments agree on the aggregate (exactness cross-checked).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import Table
from repro.core.consortium import ConsortiumService, build_consortium
from repro.core.glimmer import pack_features
from repro.core.validation import PrivateContext
from repro.errors import ProtocolError
from repro.experiments.common import Deployment


@dataclass
class ConsortiumResult:
    rows: list
    aggregate_agreement: float

    def table(self) -> Table:
        table = Table(
            "E13 (§2 extension): SGX Glimmer vs. consortium ensemble",
            [
                "deployment",
                "member failure rate",
                "msgs/contribution",
                "validations/contribution",
                "plaintext visible to",
                "contributions completed",
            ],
        )
        for row in self.rows:
            table.add_row(*row)
        return table


def run(
    num_users: int = 8,
    num_members: int = 5,
    quorum: int = 3,
    failure_rates=(0.0, 0.2),
    seed: bytes = b"e13",
) -> ConsortiumResult:
    deployment = Deployment.build(num_users=num_users, seed=seed)
    features = deployment.features
    vectors = deployment.local_vectors()
    user_ids = [user.user_id for user in deployment.corpus.users]

    # ---- the SGX Glimmer reference -------------------------------------
    deployment.open_round(1, user_ids)
    for slot, user_id in enumerate(user_ids):
        signed = deployment.clients[user_id].contribute(
            1, list(vectors[user_id]), pack_features(features.bigrams)
        )
        deployment.service.submit(1, signed, slot)
    sgx_aggregate = deployment.service.finalize_blinded_round(1).aggregate
    rows = [
        (
            "sgx glimmer (on-device)",
            0.0,
            1,  # just the signed submission
            1,  # one in-enclave validation
            "nobody (enclave only)",
            f"{num_users}/{num_users}",
        )
    ]

    # ---- the consortium, with failure injection ------------------------
    consortium_aggregate = None
    for failure_rate in failure_rates:
        rng = deployment.rng.fork(f"consortium-{failure_rate}")
        members = build_consortium(num_members, "range:0.0:1.0", rng)
        service = ConsortiumService(
            {m.name: m.identity.public_key for m in members}, quorum=quorum
        )
        for member in members:
            member.open_round(1, num_users, features.bigrams)
        service.open_round(1, num_users)
        completed = 0
        messages = 0
        validations = 0
        accepted_indices = []
        for index, user_id in enumerate(user_ids):
            endorsements = []
            stalled = False
            for member in members:
                member.available = rng.uniform() >= failure_rate
                messages += 1  # the attempt costs a round trip either way
                try:
                    endorsements.append(
                        member.endorse(
                            1, index, list(vectors[user_id]), PrivateContext()
                        )
                    )
                    validations += 1
                except ProtocolError:
                    stalled = True
            messages += 1  # submission to the service
            if stalled:
                continue  # missing shares: the bundle cannot be completed
            if service.submit(1, index, endorsements):
                completed += 1
                accepted_indices.append(index)
        rows.append(
            (
                f"consortium ({num_members} members, quorum {quorum})",
                failure_rate,
                num_members + 1,
                num_members,
                f"all {num_members} members",
                f"{completed}/{num_users}",
            )
        )
        if failure_rate == 0.0 and completed:
            consortium_aggregate = service.finalize_round(1)

    agreement = float("nan")
    if consortium_aggregate is not None:
        agreement = float(np.max(np.abs(consortium_aggregate - sgx_aggregate)))
    return ConsortiumResult(rows=rows, aggregate_agreement=agreement)

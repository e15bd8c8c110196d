"""E3 — Figure 1c: secure aggregation hides individuals, keeps the sum exact.

Two blinding schemes, both cited in §3, run over the same cohort:

* the paper's own construction — a trusted blinding service distributing
  sum-zero masks (``y_i = x_i + p_i``, Σp = 0), with dropout repair by
  disclosing the missing masks.  This arm runs end-to-end over the
  message bus: the :class:`~repro.runtime.engine.RoundEngine` provisions
  masks and collects signed submissions through the simulated transport
  while an eavesdropper records every wire payload — the "blinded
  per-user vectors" the inversion attacker gets are exactly the bytes an
  on-path observer saw;
* Bonawitz et al.'s decentralized pairwise masking with Shamir recovery
  (run directly; it is the contrast scheme, not Glimmer traffic).

For each scheme and dropout rate we report: the maximum error between the
recovered aggregate and the true mean of the submitted contributions
(exactness), and the inversion attacker's accuracy against the *blinded*
per-user vectors (privacy — should sit at chance, unlike E2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import Table
from repro.crypto.drbg import HmacDrbg
from repro.crypto.dh import TEST_GROUP
from repro.crypto.fixedpoint import FixedPointCodec
from repro.crypto.secagg import SecureAggregationClient, SecureAggregationServer
from repro.experiments.common import Deployment
from repro.federated.inversion import InversionAttacker
from repro.network.adversary import EavesdropAdversary
from repro.perf import kernels
from repro.runtime.messages import KIND_OPEN_SERVICE, KIND_SUBMIT, client_endpoint
from repro.workloads.text import stance_evidence


@dataclass
class SecureAggResult:
    rows: list

    def table(self) -> Table:
        table = Table(
            "E3 (Fig. 1c): secure aggregation — exact sums, chance-level inversion",
            [
                "scheme",
                "users",
                "dropout rate",
                "aggregate max error",
                "inversion acc (blinded)",
                "inversion acc (plain, for contrast)",
            ],
        )
        for row in self.rows:
            table.add_row(*row)
        return table


def _captured_blinded(eavesdropper, codec, round_id, user_ids):
    """Per-user blinded vectors as an on-path observer decoded them: each
    word read at the round's width, as the open command named it, and
    sign-extended, as the service reads the sum."""
    width = next(
        opened.width
        for opened in eavesdropper.captured_payloads(KIND_OPEN_SERVICE)
        if opened.round_id == round_id
    )
    blinded: dict[str, np.ndarray] = {}
    for message in eavesdropper.captured:
        if message.kind != KIND_SUBMIT:
            continue
        contribution = message.payload.contribution
        if contribution.round_id != round_id or contribution.ring_payload is None:
            continue
        for user_id in user_ids:
            if message.sender == client_endpoint(user_id):
                words = kernels.unpack_words(contribution.ring_payload, width)
                blinded.setdefault(
                    user_id, np.array(codec.decode(kernels.widen(words, width)))
                )
    return blinded


def _bonawitz_round(vectors, dropouts, codec, rng):
    """Run pairwise-mask secure aggregation; returns (aggregate, masked-per-user)."""
    user_ids = list(vectors)
    threshold = max(2, (2 * len(user_ids)) // 3)
    server = SecureAggregationServer(group=TEST_GROUP)
    clients = {
        user_id: SecureAggregationClient(
            index, rng.fork(f"sa-{index}"), group=TEST_GROUP
        )
        for index, user_id in enumerate(user_ids)
    }
    roster = server.register([c.advertise() for c in clients.values()], threshold)
    messages = []
    for client in clients.values():
        messages.extend(client.share_keys(roster, threshold))
    routed = SecureAggregationServer.route_shares(messages)
    for client in clients.values():
        client.receive_shares(routed.get(client.client_id, []))
    masked = {}
    for user_id, client in clients.items():
        vector = client.masked_input(codec.encode(list(vectors[user_id])))
        masked[user_id] = np.array(codec.decode(vector))
        if user_id not in dropouts:
            server.collect_masked_input(client.client_id, vector)
    survivors, dropped = server.survivor_sets()
    responses = {
        client.client_id: client.unmask_response(survivors, dropped)
        for user_id, client in clients.items()
        if client.client_id in survivors
    }
    aggregate = np.array(server.aggregate(responses)) / len(survivors)
    return aggregate, masked


def run(
    num_users: int = 12,
    dropout_rates=(0.0, 0.25),
    sentences_per_user: int = 30,
    seed: bytes = b"e3",
) -> SecureAggResult:
    rng = HmacDrbg(seed, personalization="e3")
    deployment = Deployment.build(
        num_users=num_users, seed=seed, sentences_per_user=sentences_per_user
    )
    eavesdropper = EavesdropAdversary()
    deployment.network.interpose(eavesdropper)
    vectors = deployment.local_vectors()
    user_ids = [user.user_id for user in deployment.corpus.users]
    labels = deployment.corpus.labels()
    attacker = InversionAttacker(deployment.features, stance_evidence())
    plain_accuracy = attacker.accuracy(vectors, labels)

    rows = []
    # ---- §3 sum-zero blinding service, end-to-end over the bus -------------
    for round_id, rate in enumerate(dropout_rates, start=1):
        num_drop = int(round(rate * num_users))
        dropouts = user_ids[:num_drop]
        report = deployment.engine.run_round(
            round_id,
            user_ids,
            vectors,
            deployment.features.bigrams,
            dropouts=dropouts,
        )
        survivors = [u for u in user_ids if u not in dropouts]
        truth = np.mean(np.stack([vectors[u] for u in survivors]), axis=0)
        error = float(np.max(np.abs(report.aggregate - truth)))
        blinded = _captured_blinded(
            eavesdropper, deployment.codec, round_id, user_ids
        )
        blinded_accuracy = attacker.accuracy(blinded, labels)
        rows.append(
            (
                "sum-zero blinding service (§3)",
                num_users,
                rate,
                error,
                blinded_accuracy,
                plain_accuracy,
            )
        )
    # ---- Bonawitz pairwise masking, for contrast ---------------------------
    for rate in dropout_rates:
        num_drop = int(round(rate * num_users))
        dropouts = set(user_ids[:num_drop])
        aggregate, masked = _bonawitz_round(
            vectors, dropouts, FixedPointCodec(), rng.fork(f"bonawitz-{rate}")
        )
        survivors = [u for u in user_ids if u not in dropouts]
        truth = np.mean(np.stack([vectors[u] for u in survivors]), axis=0)
        error = float(np.max(np.abs(aggregate - truth)))
        masked_accuracy = attacker.accuracy(masked, labels)
        rows.append(
            (
                "pairwise secagg (Bonawitz)",
                num_users,
                rate,
                error,
                masked_accuracy,
                plain_accuracy,
            )
        )
    return SecureAggResult(rows=rows)

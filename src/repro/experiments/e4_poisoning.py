"""E4 — Figure 1d: the "538" attack, and the Glimmer stopping it.

Without validation, blinding is a poisoner's paradise: "when the service
aggregates the blinded local models together, it cannot detect such induced
bias (because of the blinding), and ends up with a catastrophically skewed
global predictive model."  With a Glimmer running even the cheapest
predicate (range check), the poisoned contribution never gets signed, so
the service never admits it.

For each (attack magnitude × number of attackers) we run both conditions
and report: worst-parameter skew of the aggregate, whether the model's
suggestion for a contested context flipped to the attacker's phrasing, and
whether the attack was blocked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import Table
from repro.experiments.common import Deployment
from repro.federated.model import BigramModel
from repro.federated.poisoning import Poisoner

CONTESTED_CONTEXT = "i"
"""Attacks target a continuation of this word that is *not* the honest top,
so 'prediction flipped' is a meaningful success criterion for the attacker
(they push their own phrasing past the cohort's genuine favourite)."""


def _pick_target(features, honest_model):
    honest_top = honest_model.top_prediction(CONTESTED_CONTEXT)
    for left, right in features.bigrams:
        if left == CONTESTED_CONTEXT and right != honest_top:
            return (left, right)
    raise AssertionError("corpus has no contested continuation to target")


@dataclass
class PoisoningResult:
    rows: list

    def table(self) -> Table:
        table = Table(
            'E4 (Fig. 1d): the "538" attack under blinding, with and without a Glimmer',
            [
                "condition",
                "attackers",
                "magnitude",
                "aggregate skew",
                "prediction flipped",
                "attack blocked",
            ],
        )
        for row in self.rows:
            table.add_row(*row)
        return table


def _no_glimmer_round(vectors, attacker_ids, magnitude, features, target, codec, rng):
    """Blinding without validation: the service sums whatever arrives."""
    from repro.crypto.masking import BlindingService, apply_mask

    poisoner = Poisoner(features, [target])
    user_ids = list(vectors)
    service = BlindingService(rng.fork("nb"), codec)
    service.open_round(1, len(user_ids), len(features))
    submitted = []
    for index, user_id in enumerate(user_ids):
        vector = vectors[user_id]
        if user_id in attacker_ids:
            vector = poisoner.magnitude_attack(vector, magnitude).vector
        submitted.append(
            apply_mask(codec.encode(list(vector)), service.mask_for(1, index).row())
        )
    total = codec.sum_vectors(submitted)
    return codec.decode(total) / len(user_ids)


def run(
    num_users: int = 10,
    magnitudes=(2.0, 10.0, 538.0),
    attacker_counts=(1,),
    seed: bytes = b"e4",
) -> PoisoningResult:
    deployment = Deployment.build(
        num_users=num_users, seed=seed, predicate_spec="range:0.0:1.0"
    )
    features = deployment.features
    vectors = deployment.local_vectors()
    honest = np.mean(np.stack(list(vectors.values())), axis=0)
    honest_model = BigramModel.from_vector(features, honest)
    target = _pick_target(features, honest_model)
    poisoner = Poisoner(features, [target])
    user_ids = [user.user_id for user in deployment.corpus.users]

    rows = []
    round_id = 10
    for attackers in attacker_counts:
        attacker_ids = set(user_ids[:attackers])
        for magnitude in magnitudes:
            # ---- condition 1: blinding, no Glimmer (Figure 1d) -------------
            aggregate = _no_glimmer_round(
                vectors, attacker_ids, magnitude, features, target,
                deployment.codec, deployment.rng.fork(f"ng-{attackers}-{magnitude}"),
            )
            attacked_model = BigramModel.from_vector(features, np.array(aggregate))
            skew = poisoner.skew(honest, np.array(aggregate))
            flipped = (
                attacked_model.top_prediction(target[0])
                != honest_model.top_prediction(target[0])
            )
            rows.append(
                ("blinding, no glimmer", attackers, magnitude, skew, flipped, False)
            )

            # ---- condition 2: Glimmer with a range predicate ---------------
            # The whole round runs over the message bus: the engine
            # provisions masks, each poisoned contribution dies inside the
            # Glimmer (validation-rejected), and the engine repairs the
            # blocked parties' mask slots at finalization.
            round_id += 1
            values_by_user = {
                user_id: (
                    poisoner.magnitude_attack(vectors[user_id], magnitude).vector
                    if user_id in attacker_ids
                    else vectors[user_id]
                )
                for user_id in user_ids
            }
            report = deployment.engine.run_round(
                round_id, user_ids, values_by_user, features.bigrams
            )
            result = report.service_result
            blocked = report.validation_rejections
            accepted = list(report.survivors)
            defended_model = BigramModel.from_vector(features, result.aggregate)
            honest_survivors = np.mean(
                np.stack([vectors[u] for u in accepted]), axis=0
            )
            skew_defended = float(
                np.max(np.abs(result.aggregate - honest_survivors))
            )
            # Counterfactual is the honest mean over the same survivor set:
            # a blocked attacker also withholds their honest data, which must
            # not be scored as an attack effect.
            survivor_model = BigramModel.from_vector(features, honest_survivors)
            flipped_defended = (
                defended_model.top_prediction(target[0])
                != survivor_model.top_prediction(target[0])
            )
            rows.append(
                (
                    "glimmer (range check)",
                    attackers,
                    magnitude,
                    skew_defended,
                    flipped_defended,
                    blocked == attackers,
                )
            )
    return PoisoningResult(rows=rows)

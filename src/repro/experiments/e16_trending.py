"""E16 (extension) — §1's opening premise: the model tracks trending topics.

"As current topics (such as 'the world series' or 'Donald Trump') trend up
— because many users type them on their keyboards in a short time-span —
an up-to-date model can suggest 'Trump' as the next word when Alice types
'Donald', even if she has never typed that name herself before."

This is the *utility* half of the quagmire, and it is temporal: the
service's value comes from re-aggregating quickly as topics move.  We run
a sequence of aggregation epochs through the **full Glimmer pipeline**
(validation, blinding, signing, per-epoch mask provisioning) while the
topic's intensity ramps from zero, and track:

* the global model's ``P(trump | donald)`` per epoch;
* whether the trending suggestion is active for a user (Alice) who never
  typed the topic herself;
* the per-epoch utility on epoch-matched holdout text.

Expected shape: the suggestion switches on within an epoch or two of the
topic appearing, demonstrating that the privacy machinery does not cost
the service its freshness (every aggregate is still exact).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import Table
from repro.core.client import LocalDataStore
from repro.crypto.drbg import HmacDrbg
from repro.experiments.common import Deployment
from repro.federated.metrics import top1_accuracy
from repro.federated.model import BigramModel, FeatureSpace
from repro.workloads.text import KeyboardCorpus


@dataclass
class TrendingResult:
    rows: list
    epochs_to_trend: int | None

    def table(self) -> Table:
        table = Table(
            "E16 (§1 extension): trending topics through the Glimmer pipeline",
            [
                "epoch",
                "topic intensity",
                "P(trump|donald)",
                "suggests trump|donald",
                "aggregate max error",
                "top1-accuracy",
            ],
        )
        for row in self.rows:
            table.add_row(*row)
        return table


def run(
    num_users: int = 8,
    epoch_intensities=(0.0, 0.0, 0.1, 0.3, 0.5),
    sentences_per_user: int = 30,
    seed: bytes = b"e16",
) -> TrendingResult:
    rng = HmacDrbg(seed, personalization="e16")
    epochs = KeyboardCorpus.generate_trending(
        num_users, rng.fork("trend"), epoch_intensities,
        sentences_per_user=sentences_per_user,
    )
    # The service's feature space must cover the topic before it trends
    # (services track candidate features ahead of demand), so publish the
    # union of all epochs.  Each epoch's round runs through the engine.
    union_sentences = [s for corpus in epochs for s in corpus.all_sentences()]
    deployment = Deployment.build(
        seed=seed,
        provision_clients=False,
        features=FeatureSpace.from_corpus(union_sentences).bigrams,
    )
    features, engine = deployment.features, deployment.engine
    user_ids = [user.user_id for user in epochs[0].users]
    for user_id in user_ids:
        deployment.make_client(user_id, data=LocalDataStore())

    rows = []
    epochs_to_trend = None
    for epoch, (intensity, corpus) in enumerate(zip(epoch_intensities, epochs)):
        round_id = epoch + 1
        vectors = {
            user_id: deployment.trainer.train(corpus.streams[user_id]).contribution()
            for user_id in user_ids
        }
        report = engine.run_round(round_id, user_ids, vectors, features.bigrams)
        truth = np.mean(np.stack([vectors[u] for u in user_ids]), axis=0)
        error = float(np.max(np.abs(report.aggregate - truth)))
        model = BigramModel.from_vector(features, report.aggregate)
        weight = model.weight(("donald", "trump"))
        suggests = model.top_prediction("donald") == "trump"
        if suggests and epochs_to_trend is None and intensity > 0:
            epochs_to_trend = epoch
        holdout = corpus.holdout(rng.fork(f"holdout-{epoch}"))
        rows.append(
            (epoch, intensity, weight, suggests, error, top1_accuracy(model, holdout))
        )
    return TrendingResult(rows=rows, epochs_to_trend=epochs_to_trend)

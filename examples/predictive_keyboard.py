#!/usr/bin/env python3
"""The full Figure 1 story: four designs for a predictive keyboard service.

Replays the paper's motivating narrative end to end, measuring each panel:

* (a) raw sharing — great model, zero privacy;
* (b) federated learning — model inversion recovers each user's politics;
* (c) secure aggregation — private, but the 538 poisoner wrecks the model;
* (d→Glimmer) client-side validation inside SGX — private *and* trustworthy.

Run:  python examples/predictive_keyboard.py
"""

import numpy as np

from repro.crypto.drbg import HmacDrbg
from repro.crypto.fixedpoint import FixedPointCodec
from repro.crypto.masking import BlindingService, apply_mask
from repro.experiments.common import Deployment
from repro.federated.aggregation import FederatedAggregator
from repro.federated.inversion import InversionAttacker
from repro.federated.metrics import top1_accuracy
from repro.federated.model import BigramModel
from repro.federated.poisoning import Poisoner
from repro.runtime.telemetry import OUTCOME_VALIDATION_REJECTED
from repro.workloads.text import stance_evidence

NUM_USERS = 12


def main() -> None:
    deployment = Deployment.build(num_users=NUM_USERS, seed=b"keyboard-example")
    corpus, features = deployment.corpus, deployment.features
    labels = corpus.labels()
    vectors = deployment.local_vectors()
    holdout = corpus.holdout(deployment.rng.fork("holdout"))
    attacker = InversionAttacker(features, stance_evidence())
    aggregator = FederatedAggregator(features)

    print("== Figure 1a: raw sharing ==")
    central = BigramModel.train(features, corpus.all_sentences())
    print(f"  utility (top-1): {top1_accuracy(central, holdout):.3f}")
    print("  privacy: the service reads everyone's sentences — including "
          f"{corpus.users[0].user_id}'s politics — directly\n")

    print("== Figure 1b: federated learning ==")
    federated = aggregator.aggregate(list(vectors.values()))
    print(f"  utility (top-1): {top1_accuracy(federated, holdout):.3f}")
    inversion = attacker.accuracy(vectors, labels)
    print(f"  but per-user models invert: attacker recovers stances with "
          f"accuracy {inversion:.2f}\n")

    print("== Figure 1c: secure aggregation (no validation) ==")
    codec = FixedPointCodec()
    rng = HmacDrbg(b"fig1c")
    blinding = BlindingService(rng, codec)
    blinding.open_round(1, NUM_USERS, len(features))
    blinded = {}
    for index, (user_id, vector) in enumerate(vectors.items()):
        blinded[user_id] = apply_mask(
            codec.encode(list(vector)), blinding.mask_for(1, index)
        )
    leaked = attacker.accuracy(
        {u: np.array(codec.decode(b)) for u, b in blinded.items()}, labels
    )
    print(f"  inversion on blinded vectors: {leaked:.2f} (chance ≈ 0.5)")
    # ... but Alice poisons one parameter with 538 before blinding:
    poisoner = Poisoner(features, [features.bigrams[0]])
    evil_vector = poisoner.magnitude_attack(
        list(vectors.values())[0], 538.0
    ).vector
    blinded_evil = apply_mask(codec.encode(list(evil_vector)), blinding.mask_for(1, 0))
    total = codec.sum_vectors([blinded_evil] + list(blinded.values())[1:])
    skewed = np.array(codec.decode(total)) / NUM_USERS
    honest_mean = np.mean(np.stack(list(vectors.values())), axis=0)
    print(f"  ...and the hidden 538 skews the aggregate by "
          f"{np.max(np.abs(skewed - honest_mean)):.1f} — undetectably\n")

    print("== The Glimmer: validation before blinding, inside SGX ==")
    user_ids = [user.user_id for user in corpus.users]
    values = dict(vectors)
    # Alice tries the same 538.
    values[user_ids[0]] = poisoner.magnitude_attack(values[user_ids[0]], 538.0).vector
    report = deployment.engine.run_round(10, user_ids, values, features.bigrams)
    rejected = list(report.outcomes.values()).count(OUTCOME_VALIDATION_REJECTED)
    survivors_mean = np.mean(
        np.stack([vectors[u] for u in user_ids[1:]]), axis=0
    )
    print(f"  poisoned contributions rejected in-enclave: {rejected}")
    print(f"  defended aggregate max error: "
          f"{np.max(np.abs(report.aggregate - survivors_mean)):.2e}")
    defended = BigramModel.from_vector(features, report.aggregate)
    print(f"  utility (top-1): {top1_accuracy(defended, holdout):.3f}")
    print(f"  next word after 'donald': {defended.top_prediction('donald')!r}")
    print("\nPrivacy AND trust: the quagmire resolved (for this round, anyway).")


if __name__ == "__main__":
    main()

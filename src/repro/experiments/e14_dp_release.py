"""E14 (extension) — quantifying Input Confidentiality with differential privacy.

§2 demands that Glimmer "outputs leak a bounded amount of information about
private data, via encryption or aggregation."  Blinding makes individual
*messages* uninformative, but the *aggregate itself* still carries some
information about each user (E2 measured the aggregate-only attacker).  The
natural way to make the §2 bound quantitative is distributed differential
privacy: every Glimmer adds Gaussian noise **inside the enclave, before
blinding**, so the only value the service ever reconstructs — the noised
aggregate — satisfies (ε, δ)-DP for each contributor, enforced by measured
(attested!) code rather than by trusting the service.

We sweep the measured ``dp_sigma`` and report: the (ε, δ=1e-5) level of the
aggregate, utility (top-1 accuracy of the noised global model), aggregate
error vs. the noiseless mean, and the aggregate-only inversion advantage.
Expected shape: a privacy/utility dial — ε falls and so does utility, with
a sweet spot where the trending suggestion still works.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.privacy import gaussian_epsilon
from repro.analysis.reporting import Table
from repro.experiments.common import Deployment
from repro.federated.metrics import top1_accuracy
from repro.federated.model import BigramModel
from repro.invariants import Verdict, judge


@dataclass
class DpReleaseResult:
    rows: list
    verdict: Verdict | None  # the noiseless round's, if one ran

    def table(self) -> Table:
        table = Table(
            "E14 (extension): distributed DP inside the Glimmer — privacy dial",
            [
                "dp sigma (per client)",
                "epsilon (δ=1e-5)",
                "aggregate max error",
                "top1-accuracy",
                "predicts trump|donald",
            ],
        )
        for row in self.rows:
            table.add_row(*row)
        return table


def run(
    num_users: int = 10,
    sigmas=(0.0, 0.05, 0.2, 1.0, 5.0),
    seed: bytes = b"e14",
) -> DpReleaseResult:
    rows, verdict = [], None
    for sigma in sigmas:
        deployment = Deployment.build(
            num_users=num_users,
            seed=seed + str(sigma).encode(),
            dp_sigma=float(sigma),
        )
        features = deployment.features
        vectors = deployment.local_vectors()
        user_ids = [user.user_id for user in deployment.corpus.users]
        aggregate = deployment.honest_round(1)
        if sigma == 0.0:
            # Only the noiseless round is held to the exact mean: judge
            # rightly calls a noised aggregate undetected-corruption.
            verdict = judge(deployment.last_report, deployment.codec, vectors)
        truth = np.mean(np.stack([vectors[u] for u in user_ids]), axis=0)
        error = float(np.max(np.abs(aggregate - truth)))

        # One user's weights lie in [0,1]^d, so replacing a user moves the
        # *mean* by at most sqrt(d)/N in L2; per-client noise sigma yields
        # aggregate noise sigma/sqrt(N).
        l2_sensitivity = math.sqrt(len(features)) / num_users
        aggregate_sigma = sigma / math.sqrt(num_users)
        epsilon = gaussian_epsilon(l2_sensitivity, aggregate_sigma)

        model = BigramModel.from_vector(features, np.clip(aggregate, 0.0, 1.0))
        holdout = deployment.corpus.holdout(deployment.rng.fork("holdout"))
        utility = top1_accuracy(model, holdout)
        trending = model.top_prediction("donald") == "trump"
        rows.append((sigma, epsilon, error, utility, trending))
    return DpReleaseResult(rows=rows, verdict=verdict)

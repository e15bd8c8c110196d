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
MRENCLAVE seeds the enclave's noise, so a σ > 0 row is the mean over the
:data:`DRAWS` deployments and its trending verdict their majority.
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
from repro.runtime.telemetry import RoundReport

#: Seed suffixes of the draws a σ > 0 row averages; σ = 0 is one exact round.
DRAWS = (b"",) + tuple(b":%d" % draw for draw in range(1, 8))


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
                "trump|donald share",
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
        draws = []
        for suffix in DRAWS if sigma else DRAWS[:1]:
            deployment = Deployment.build(
                num_users=num_users,
                seed=seed + str(sigma).encode() + suffix,
                dp_sigma=float(sigma),
            )
            vectors = deployment.local_vectors()
            aggregate = deployment.honest_round(1)
            if sigma == 0.0:
                # Only the noiseless round is held to the exact mean: judge
                # rightly calls a noised aggregate undetected-corruption.
                verdict = judge(deployment.last_report, deployment.codec, vectors)
            users = [user.user_id for user in deployment.corpus.users]
            truth = np.mean(np.stack([vectors[u] for u in users]), axis=0)
            model = BigramModel.from_vector(deployment.features, np.clip(aggregate, 0.0, 1.0))
            holdout = deployment.corpus.holdout(deployment.rng.fork("holdout"))
            error = float(np.max(np.abs(aggregate - truth)))
            trending = model.top_prediction("donald") == "trump"
            draws.append((error, top1_accuracy(model, holdout), trending))
        error, utility, share = (float(np.mean(column)) for column in zip(*draws))
        epsilon = release_epsilon(deployment.last_report, len(deployment.features), sigma)
        rows.append((sigma, epsilon, error, utility, share, share > 0.5))
    return DpReleaseResult(rows=rows, verdict=verdict)


def release_epsilon(report: RoundReport, length: int, sigma: float) -> float:
    """ε (δ = 1e-5) of one round's released mean, at the noise it carried.

    The mean is over the ``m`` contributions the round counted,
    ``report.num_contributions``, not over the users asked.  One user's
    weights lie in ``[0, 1]^length``, so replacing a user moves the mean by
    at most ``√length/m`` in L2, and ``m`` noise shares of per-client
    ``sigma`` leave ``sigma/√m`` on it.
    """
    counted = report.num_contributions
    return gaussian_epsilon(math.sqrt(length) / counted, sigma / math.sqrt(counted))

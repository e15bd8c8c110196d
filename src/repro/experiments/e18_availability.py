"""E18 (extension) — availability under injected faults, exact-or-abort.

The paper's §3 dropout story ("the blinding service can disclose the sums
of the blinding values from non-submitting parties") is a *repair* story:
rounds should survive real-world failure, not just polite dropout lists.
This experiment turns the crank on :mod:`repro.faults`: for each fault
rate it samples deterministic fault schedules — request and response
drops, client enclaves killed before or after signing, sealed-checkpoint
loss, blinding-service crashes at phase boundaries, EPC pressure — runs a
full round through the engine under each schedule, and tallies what came
out:

* **finalized exactly** — :func:`repro.invariants.judge` finds the
  aggregate bit-equal to the exact mean over the accepted contributions;
* **aborted** — the round raised :class:`RoundAbortedError` with a
  partial report, publishing nothing;
* **inexact** — ``undetected-corruption``, the failure mode the design
  forbids; the expected count is zero at every fault rate.

Repair and recovery machinery is also tallied: masks revealed for §3
repair, client enclaves restarted from sealed checkpoints, transport
retries, and total faults fired.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import invariants
from repro.analysis.reporting import Table
from repro.crypto.drbg import HmacDrbg
from repro.errors import RoundAbortedError
from repro.experiments.common import Deployment
from repro.faults import FaultInjector, FaultPlan


@dataclass
class AvailabilityResult:
    rows: list

    def table(self) -> Table:
        table = Table(
            "E18 (extension): round availability under injected faults",
            [
                "fault rate",
                "rounds",
                "finalized exactly",
                "aborted",
                "inexact",
                "success %",
                "masks repaired",
                "client restarts",
                "retries",
                "faults fired",
            ],
        )
        for row in self.rows:
            table.add_row(*row)
        return table


def run(
    num_users: int = 6,
    rounds_per_rate: int = 8,
    fault_rates=(0.0, 0.03, 0.08, 0.15),
    seed: bytes = b"e18",
) -> AvailabilityResult:
    rows = []
    for rate in fault_rates:
        deployment = Deployment.build(
            num_users=num_users,
            seed=seed + f":{rate}".encode(),
            sentences_per_user=15,
        )
        user_ids = [user.user_id for user in deployment.corpus.users]
        vectors = deployment.local_vectors()
        schedule_rng = HmacDrbg(seed, personalization=f"e18-plans:{rate}")
        finalized = aborted = inexact = 0
        repaired = restarts = retries = faults = 0
        for round_id in range(1, rounds_per_rate + 1):
            plan = FaultPlan.sample(
                schedule_rng.fork(f"round-{round_id}"),
                rate,
                clients=user_ids,
                rounds=(round_id,),
                label=f"rate={rate} round={round_id}",
            )
            injector = FaultInjector(
                plan, seed=seed + f":inject:{rate}:{round_id}".encode()
            )
            deployment.enable_faults(injector)
            try:
                finished = deployment.engine.run_round(
                    round_id,
                    user_ids,
                    vectors,
                    deployment.features.bigrams,
                    recovery_threshold=0.25,
                )
            except RoundAbortedError as abort:
                deployment.engine.abandon_round(round_id)
                finished = abort
            verdict = invariants.judge(finished, deployment.codec, vectors)
            report = verdict.report
            aborted += verdict.aborted
            finalized += verdict.exact
            inexact += verdict.corrupted
            repaired += report.masks_repaired
            restarts += report.client_restarts
            retries += report.retries
            faults += report.faults_injected
        total = rounds_per_rate
        rows.append(
            (
                rate,
                total,
                finalized,
                aborted,
                inexact,
                round(100.0 * finalized / total, 1),
                repaired,
                restarts,
                retries,
                faults,
            )
        )
    return AvailabilityResult(rows=rows)

"""A stateful search over queue → journal → engine → audit.

Hypothesis drives a :class:`GlimmerService` on a :class:`MemoryBackend`
through arbitrary interleavings of submissions, round batches, and hard
kills at every lifecycle stage (each followed by the operator's
``recover`` + ``resume``).  After every step the two service-level
invariants of :mod:`repro.invariants` must hold over *persisted state
only*: no acknowledged submission is lost or double-applied, and every
finalized journal aggregate is the exact mean over its journaled values.
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import invariants
from repro.errors import AdmissionError, ServiceKilledError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.faults.plan import SITE_SERVICE_KILL
from repro.faults.service_plan import KILL_STAGES
from repro.service.journal import RoundJournal
from repro.service.service import GlimmerService
from repro.service.storage import MemoryBackend

TENANT = "alpha"
SERVICE_KWARGS = dict(
    num_users=3, sentences_per_user=3, max_features=6, queue_capacity=4
)


class ServiceLedgerMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.backend = MemoryBackend()
        self.service = GlimmerService(self.backend, **SERVICE_KWARGS)
        deployment = self.service.add_tenant(TENANT).deployment
        self.users = sorted(deployment.clients)
        self.codec = deployment.codec
        self.acked: list[str] = []
        self.kills = 0

    def _survive(self, operation):
        """Run one operation; if the process dies in it, restart from state."""
        try:
            return operation()
        except ServiceKilledError:
            self.service = GlimmerService.recover(self.backend, **SERVICE_KWARGS)
            self.service.resume_sync()
            return None

    def _submit(self, user: str) -> None:
        try:
            self.acked.append(self.service.submit_honest(TENANT, user))
        except AdmissionError:
            pass  # backpressure is an answer, not an acknowledgement

    @rule(user=st.integers(min_value=0, max_value=2))
    def submit_honest(self, user):
        self._submit(self.users[user])

    @rule()
    def run_pending_sync(self):
        self.service.run_pending_sync()

    @rule(
        stage=st.sampled_from(KILL_STAGES),
        user=st.integers(min_value=0, max_value=2),
    )
    def kill(self, stage, user):
        """Die at ``stage`` on its next visit — submitting, then draining."""
        self.kills += 1
        plan = FaultPlan(specs=(FaultSpec(site=SITE_SERVICE_KILL, phase=stage),))
        self.service.attach_chaos(
            FaultInjector(plan, seed=b"machine:%d" % self.kills)
        )
        self._survive(lambda: self._submit(self.users[user]))
        self._survive(self.service.run_pending_sync)
        self.service.attach_chaos(None)

    @invariant()
    def applied_exactly_once(self):
        ledger = invariants.applied_exactly_once(
            RoundJournal(self.backend),
            lambda sid: self.backend.get(f"queue/{TENANT}", sid),
            self.acked,
        )
        assert ledger.holds, ledger

    @invariant()
    def finalized_aggregates_are_exact(self):
        for round_id, entry, recorded in invariants.finalized_rounds(
            RoundJournal(self.backend)
        ):
            values = entry["values_by_user"]
            truth = invariants.exact_mean(self.codec, values, values)
            assert recorded == [float(v) for v in truth], round_id

    def teardown(self):
        self.service.close()


TestServiceLedger = ServiceLedgerMachine.TestCase
TestServiceLedger.settings = settings(
    max_examples=25, stateful_step_count=12, derandomize=True, deadline=None
)

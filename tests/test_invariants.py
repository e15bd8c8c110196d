"""The oracle itself: :mod:`repro.invariants` judges doctored evidence.

Every harness trusts these functions to tell an exact round from a
corrupted one, a blamed abort from a benign one, and a double-applied
submission from a settled one — so each is fed evidence doctored in
exactly one way and must notice exactly that.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import invariants
from repro.errors import RoundAbortedError
from repro.experiments.common import Deployment
from repro.network.adversary import EavesdropAdversary
from repro.network.message import Message
from repro.runtime import messages as m
from repro.runtime.protocol import VIOLATION_MASK_OPENING, ViolationRecord
from repro.service.journal import RoundJournal
from repro.service.queue import STATE_APPLIED, STATE_PENDING, STATE_REJECTED
from repro.service.storage import MemoryBackend


@pytest.fixture(scope="module")
def honest():
    """One honest round with a §3 repair, an eavesdropper on the bus."""
    deployment = Deployment.build(
        num_users=4, seed=b"invariants", sentences_per_user=8
    )
    spy = EavesdropAdversary()
    deployment.network.interpose(spy)
    users = [user.user_id for user in deployment.corpus.users]
    vectors = deployment.local_vectors()
    report = deployment.engine.run_round(
        1, users, vectors, deployment.features.bigrams,
        collect_dropouts=(users[2],),
    )
    return deployment.codec, vectors, report, spy.captured


def test_an_honest_round_judges_clean(honest):
    codec, vectors, report, _ = honest
    verdict = invariants.judge(report, codec, vectors)
    assert verdict.outcome == invariants.OUTCOME_CLEAN
    assert verdict.exact and not verdict.aborted and not verdict.corrupted
    assert verdict.offenders == ()
    assert verdict.report is report


def test_one_doctored_word_judges_undetected_corruption(honest):
    codec, vectors, report, _ = honest
    doctored = np.array(report.aggregate, dtype=float, copy=True)
    doctored[0] += 1.0 / codec.scale  # one fixed-point unit, one word
    verdict = invariants.judge(replace(report, aggregate=doctored), codec, vectors)
    assert verdict.outcome == invariants.OUTCOME_UNDETECTED_CORRUPTION
    assert verdict.corrupted and not verdict.exact


def test_counting_a_repaired_slot_judges_undetected_corruption(honest):
    """The right numbers over the wrong set are still the wrong answer."""
    codec, vectors, report, _ = honest
    everyone = {user: "accepted" for user in report.participants}
    verdict = invariants.judge(replace(report, outcomes=everyone), codec, vectors)
    assert verdict.corrupted


def test_recorded_misbehaviour_turns_clean_into_exact(honest):
    codec, vectors, report, _ = honest
    noisy = replace(report, rejected={"replayed-nonce": 1})
    assert invariants.judge(noisy, codec, vectors).outcome == invariants.OUTCOME_EXACT


def test_an_abort_is_judged_by_whether_it_names_an_offender(honest):
    codec, vectors, report, _ = honest
    aborted = replace(report, aborted=True, abort_reason="x", aggregate=None)
    benign = invariants.judge(aborted, codec, vectors)
    assert benign.outcome == invariants.OUTCOME_BENIGN_ABORT
    assert benign.aborted and benign.offenders == ()
    blamed = replace(
        aborted,
        violations=(ViolationRecord("blinder", VIOLATION_MASK_OPENING, 1),),
    )
    error = RoundAbortedError("round 1: x")
    error.report = blamed  # the shape engine aborts arrive in
    verdict = invariants.judge(error, codec, vectors)
    assert verdict.outcome == invariants.OUTCOME_DETECTED_ABORT
    assert verdict.offenders == ("blinder",)
    assert verdict.report is blamed


def test_reveals_stay_off_consumed_slots(honest):
    _, _, report, captured = honest
    revealed = [
        message.payload.party_index
        for message in captured
        if message.kind == m.KIND_REVEAL_MASK
    ]
    assert revealed == [2], "the one dropout's slot was repaired"
    assert invariants.consumed_slots_revealed(report, captured) == ()
    leak = Message(m.ENGINE, m.BLINDER, m.KIND_REVEAL_MASK, m.RevealMask(1, 0))
    assert invariants.consumed_slots_revealed(report, captured + [leak]) == (0,)
    other_round = Message(
        m.ENGINE, m.BLINDER, m.KIND_REVEAL_MASK, m.RevealMask(2, 0)
    )
    assert invariants.consumed_slots_revealed(report, [other_round]) == ()


def _journal(*rounds) -> RoundJournal:
    journal = RoundJournal(MemoryBackend())
    for round_id, submission_ids in rounds:
        journal.round_opened(round_id, "alpha", ["u"], submission_ids)
        journal.round_finalized(round_id, [0.0])
    return journal


def test_a_submission_named_by_two_finalized_rounds_is_doubled():
    journal = _journal((1, ["s1", "s2"]), (2, ["s2"]))
    records = {"s1": {"state": STATE_APPLIED}, "s2": {"state": STATE_APPLIED}}
    ledger = invariants.applied_exactly_once(journal, records.get, ["s1", "s2"])
    assert ledger.doubled == ("s2",)
    assert ledger.named == {"s1": 1, "s2": 2}
    assert not ledger.holds


def test_the_journal_vouches_for_a_destroyed_queue_record():
    journal = _journal((1, ["s1"]))
    journal.round_opened(2, "alpha", ["u"], ["s9"])  # opened, never finalized
    records = {"s1": "torn-garbage", "s3": {"state": STATE_PENDING}}
    ledger = invariants.applied_exactly_once(journal, records.get, ["s1", "s3"])
    assert ledger.holds and ledger.lost == ()
    assert ledger.in_flight == ("s3",)
    # s9's round never finalized and its record is gone: nobody vouches.
    assert invariants.applied_exactly_once(journal, records.get, ["s9"]).lost == (
        "s9",
    )


def test_an_acked_submission_that_ends_rejected_is_lost():
    records = {"s1": {"state": STATE_REJECTED}}
    ledger = invariants.applied_exactly_once(_journal(), records.get, ["s1"])
    assert ledger.lost == ("s1",) and not ledger.holds


def test_finalized_rounds_skip_what_storage_tore():
    journal = _journal((1, ["s1"]))
    backend = journal._backend
    backend.append("round-journal", {"garbage": True})
    backend.append("round-journal", {"status": "finalized", "round_id": "7"})
    journal.round_finalized(1)  # a settle record: keeps the first aggregate
    journal.round_finalized(3, [1.5])  # its open record was destroyed
    assert invariants.finalized_rounds(journal) == [
        (1, journal.opened_entry(1), [0.0]),
        (3, None, [1.5]),
    ]

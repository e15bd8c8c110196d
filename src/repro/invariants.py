"""The four invariants the paper's argument rests on, stated once.

Every harness — the Byzantine, crash-chaos, service-chaos and fleet
sweeps, E18/E19/E20, the test suites — judges with these, not a copy:

* **counted exactly once** — :func:`exact_mean` is the ground truth a
  finalized aggregate must equal bit for bit; :func:`judge` holds a round
  to it;
* **blame lands on the forger** — :func:`judge` classifies an abort by
  whether its violation records name an offender, and carries the names;
* **a consumed slot's mask is never revealed** —
  :func:`consumed_slots_revealed`, over the ``blinder/reveal-mask``
  traffic an :class:`~repro.network.adversary.EavesdropAdversary` saw;
* **a restart neither loses nor double-applies** —
  :func:`applied_exactly_once`, over what journal and queue persisted.

They take only what a harness already holds (a report or the abort
carrying one, codec, honest vectors, captured traffic, the persisted
journal) and never reach into a party's live state: that is the line
between what an untrusted peer is assumed to do and what is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.runtime.messages import KIND_REVEAL_MASK
from repro.runtime.telemetry import OUTCOME_QUARANTINED, RoundReport

# The one verdict vocabulary -------------------------------------------------
OUTCOME_CLEAN = "clean-finalize"
"""Finalized exactly, and the report records no misbehaviour at all."""

OUTCOME_EXACT = "exact-finalize"
"""Finalized exactly *despite* recorded misbehaviour (violations, service
rejections, or a quarantined participant sitting the round out)."""

OUTCOME_DETECTED_ABORT = "detected-abort"
"""Aborted with at least one violation naming an offender."""

OUTCOME_BENIGN_ABORT = "benign-abort"
"""Aborted with nobody to blame (nothing accepted, weather starved it)."""

OUTCOME_UNDETECTED_CORRUPTION = "undetected-corruption"
"""Finalized an aggregate that is not the exact mean over the accepted
contributions.  The design goal is that this never occurs."""


def exact_mean(codec, vectors: Mapping[str, Sequence[float]], included: Iterable[str]):
    """Ground truth: the fixed-point mean over exactly ``included`` (ring
    addition is exact and commutative: only the set matters, not its order)."""
    encoded = [codec.encode(list(vectors[user_id])) for user_id in included]
    return codec.decode(codec.sum_vectors(encoded)) / len(encoded)


@dataclass(frozen=True)
class Verdict:
    """One round, judged: the outcome word, who was blamed, the report."""

    outcome: str
    offenders: tuple[str, ...]
    report: RoundReport

    @property
    def aborted(self) -> bool:
        return self.report.aborted

    @property
    def exact(self) -> bool:
        return self.outcome in (OUTCOME_CLEAN, OUTCOME_EXACT)

    @property
    def corrupted(self) -> bool:
        return self.outcome == OUTCOME_UNDETECTED_CORRUPTION


def judge(report_or_abort, codec, vectors: Mapping[str, Sequence[float]]) -> Verdict:
    """Classify a finished round — a report, or the abort carrying one.

    A finalized round is exact when its aggregate is bit-equal to
    :func:`exact_mean` over the participants the report marks accepted
    (evicted and repaired slots are not among them), else
    ``undetected-corruption``.  An abort published nothing: it is judged
    only by whether its telemetry names an offender.
    """
    report = getattr(report_or_abort, "report", report_or_abort)
    offenders = tuple(sorted({v.offender for v in report.violations}))
    if report.aborted:
        outcome = OUTCOME_DETECTED_ABORT if offenders else OUTCOME_BENIGN_ABORT
    elif not report.survivors or not np.array_equal(
        np.asarray(report.aggregate), exact_mean(codec, vectors, report.survivors)
    ):
        outcome = OUTCOME_UNDETECTED_CORRUPTION
    elif (
        report.violations
        or report.rejected
        or OUTCOME_QUARANTINED in report.outcomes.values()
    ):
        outcome = OUTCOME_EXACT
    else:
        outcome = OUTCOME_CLEAN
    return Verdict(outcome=outcome, offenders=offenders, report=report)


def consumed_slots_revealed(report: RoundReport, captured) -> tuple[int, ...]:
    """Mask slots that were both counted and asked to be revealed (want: none).

    ``captured`` is an eavesdropper's message list.  Slot ``i`` belongs to
    ``report.participants[i]``; an accepted participant consumed its mask,
    and revealing it would unblind that one contribution.
    """
    revealed = {
        message.payload.party_index
        for message in captured
        if message.kind == KIND_REVEAL_MASK
        and message.payload.round_id == report.round_id
    }
    survivors = set(report.survivors)
    slots = enumerate(report.participants)
    return tuple(s for s, user_id in slots if user_id in survivors and s in revealed)


def finalized_rounds(journal) -> list[tuple[int, dict | None, list | None]]:
    """Finalized rounds as ``(round id, opened entry, recorded aggregate)``.

    The opened entry is the first journaled for the id (``None`` when
    storage destroyed it), the aggregate the last recorded (``None`` for a
    settled round whose record was lost).  Torn entries are skipped.
    """
    # Imported here: repro.service's harnesses themselves import this module.
    from repro.service.journal import STATUS_FINALIZED, STATUS_OPENED

    opened: dict[int, dict] = {}
    aggregates: dict[int, list | None] = {}
    for entry in journal.entries():
        if not isinstance(entry, dict) or not isinstance(entry.get("round_id"), int):
            continue
        round_id = entry["round_id"]
        if entry.get("status") == STATUS_OPENED:
            opened.setdefault(round_id, entry)
        elif entry.get("status") == STATUS_FINALIZED:
            aggregates[round_id] = entry.get("aggregate", aggregates.get(round_id))
    return [
        (round_id, opened.get(round_id), aggregates[round_id])
        for round_id in sorted(aggregates)
    ]


@dataclass(frozen=True)
class Ledger:
    """Where every acknowledged submission stands in persisted state."""

    #: submission id -> how many distinct finalized rounds name it
    named: dict[str, int]
    #: named by more than one finalized round: applied twice
    doubled: tuple[str, ...]
    #: acknowledged, yet neither live in the queue, applied, nor vouched
    #: for by exactly one finalized round
    lost: tuple[str, ...]
    #: acknowledged and still pending, deferred or assigned
    in_flight: tuple[str, ...]

    @property
    def holds(self) -> bool:
        """Nothing lost, nothing doubled (in-flight work is neither)."""
        return not (self.doubled or self.lost)


def applied_exactly_once(
    journal, queue_records: Callable[[str], object], acked: Iterable[str]
) -> Ledger:
    """Account for every acknowledged submission from persisted state only.

    ``queue_records(submission_id)`` returns the persisted queue record
    (anything but a dict with a ``state`` counts as destroyed).  A
    submission is fine while live in the queue or ``applied``; when its
    record was destroyed, exactly one finalized round must name it.
    """
    from repro.service.queue import STATE_APPLIED, STATE_ASSIGNED, STATE_DEFERRED, STATE_PENDING

    named: dict[str, int] = {}
    for _round_id, entry, _aggregate in finalized_rounds(journal):
        for sid in (entry or {}).get("submission_ids", ()):
            named[sid] = named.get(sid, 0) + 1
    lost: list[str] = []
    in_flight: list[str] = []
    for sid in acked:
        record = queue_records(sid)
        state = record.get("state") if isinstance(record, dict) else None
        if state in (STATE_PENDING, STATE_DEFERRED, STATE_ASSIGNED):
            in_flight.append(sid)
        elif state is None:
            if named.get(sid, 0) != 1:
                lost.append(sid)
        elif state != STATE_APPLIED:
            lost.append(sid)
    return Ledger(
        named=named,
        doubled=tuple(sorted(sid for sid, count in named.items() if count > 1)),
        lost=tuple(lost),
        in_flight=tuple(in_flight),
    )

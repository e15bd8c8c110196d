"""E6 — §2's trade-off: predicate complexity vs. adversary cost.

"While more invasive validation increases the complexity and resources
required by the Glimmer, it also increases the adversary's cost to cheat
undetected, since she now has to fabricate keyboard activity or program
executions that corroborate her deceptive inputs."

We run a ladder of three Glimmer configurations against a ladder of three
attacks and report, per cell: whether the attack was detected, the
Glimmer-side validation cycles, and the adversary's fabrication effort
(simulated work units to build the forged evidence).  The expected shape:
each predicate rung defeats the attacks below its sophistication and costs
more cycles; the adversary's cost to *still* cheat rises with each rung —
and never reaches zero detection risk for free.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import Table
from repro.core.predicates import trace_commitment
from repro.core.validation import PrivateContext, RoundFacts, default_registry
from repro.crypto.drbg import HmacDrbg
from repro.federated.model import FeatureSpace
from repro.federated.poisoning import Poisoner
from repro.federated.trainer import LocalTrainer
from repro.sgx.counters import MonotonicCounter
from repro.workloads.keyboard import (
    empty_trace,
    robotic_trace_for_sentences,
    trace_for_sentences,
)
from repro.workloads.text import KeyboardCorpus

PREDICATE_LADDER = (
    ("range", "range:0.0:1.0"),
    ("range+keystrokes", "chain:range,0.0,1.0+keystrokes,0.15"),
    ("range+exec-trace", "chain:range,0.0,1.0+exec-trace,0.02"),
)


@dataclass
class AttackPlan:
    """One adversary strategy: values + the evidence they fabricate."""

    name: str
    values: list
    context: PrivateContext
    fabrication_effort: int


@dataclass
class PredicateLadderResult:
    rows: list

    def table(self) -> Table:
        table = Table(
            "E6 (§2): predicate complexity vs. adversary cost",
            [
                "predicate",
                "attack",
                "detected",
                "glimmer cycles",
                "adversary effort",
            ],
        )
        for row in self.rows:
            table.add_row(*row)
        return table


def _attack_plans(features: FeatureSpace, rng: HmacDrbg) -> list[AttackPlan]:
    poisoner = Poisoner(features, [features.bigrams[0]])
    zero = [0.0] * len(features)

    # Rung-0 attack: the literal 538 — no evidence at all.
    magnitude = poisoner.magnitude_attack(zero, 538.0)

    # Rung-1 attack: in-range boost, zero-effort (empty) evidence.
    boost = poisoner.boost_in_range_attack(zero, 1.0)

    # Rung-1.5 attack: in-range boost with a cheap robotic trace typed to match.
    boost_sentences = [[left, right] for left, right in [features.bigrams[0]]] * 20
    robotic = robotic_trace_for_sentences(boost_sentences)

    # Rung-2 attack: fully fabricated consistent execution — human-statistics
    # trace, matching sentences, and a correct trace commitment.  Expensive.
    fabricated = poisoner.fabricated_consistent_attack(repetitions=30)
    human_trace = trace_for_sentences(fabricated.forged_sentences, rng.fork("forge"))

    return [
        AttackPlan(
            name="magnitude 538 (no evidence)",
            values=list(magnitude.vector),
            context=PrivateContext(keystroke_trace=empty_trace(), sentences=[]),
            fabrication_effort=0,
        ),
        AttackPlan(
            name="in-range boost (no evidence)",
            values=list(boost.vector),
            context=PrivateContext(keystroke_trace=empty_trace(), sentences=[]),
            fabrication_effort=0,
        ),
        AttackPlan(
            name="in-range boost (robotic trace)",
            values=list(boost.vector),
            context=PrivateContext(
                keystroke_trace=robotic, sentences=boost_sentences
            ),
            fabrication_effort=len(robotic.events),
        ),
        AttackPlan(
            name="fabricated consistent execution",
            values=list(fabricated.vector),
            context=PrivateContext(
                keystroke_trace=human_trace,
                sentences=fabricated.forged_sentences,
                trace_commitment=trace_commitment(
                    fabricated.forged_sentences, list(fabricated.vector)
                ),
            ),
            fabrication_effort=fabricated.fabrication_effort
            + len(human_trace.events) * 10,
        ),
    ]


def run(
    num_users: int = 4, sentences_per_user: int = 20, seed: bytes = b"e6"
) -> PredicateLadderResult:
    rng = HmacDrbg(seed, personalization="e6")
    corpus = KeyboardCorpus.generate(
        num_users, rng.fork("corpus"), sentences_per_user=sentences_per_user
    )
    features = FeatureSpace.from_corpus(corpus.all_sentences())
    registry = default_registry()
    plans = _attack_plans(features, rng)

    # Also include the honest client as a false-positive control.
    honest_user = corpus.users[0].user_id
    honest_sentences = corpus.streams[honest_user]
    trainer = LocalTrainer(features)
    honest_vector = list(trainer.train(honest_sentences).contribution())
    honest_trace = trace_for_sentences(honest_sentences, rng.fork("honest"))
    honest_plan = AttackPlan(
        name="honest client (control)",
        values=honest_vector,
        context=PrivateContext(
            keystroke_trace=honest_trace,
            sentences=honest_sentences,
            trace_commitment=trace_commitment(honest_sentences, honest_vector),
        ),
        fabrication_effort=0,
    )

    rows = []
    for predicate_name, spec in PREDICATE_LADDER:
        predicate = registry.build(spec)
        for plan in [honest_plan] + plans:
            # What a Glimmer would attach: one round, one counter per attempt.
            facts = RoundFacts(1, features.bigrams, MonotonicCounter(b"e6", "round-1"))
            outcome = predicate.evaluate(plan.values, plan.context, facts)
            detected = not outcome.passed
            rows.append(
                (
                    predicate_name,
                    plan.name,
                    detected,
                    outcome.cycles,
                    plan.fabrication_effort,
                )
            )
    return PredicateLadderResult(rows=rows)

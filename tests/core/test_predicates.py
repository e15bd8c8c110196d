"""Tests for every validation predicate and the registry."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.predicates import (
    AcceptAllPredicate,
    ChainPredicate,
    ExecutionTracePredicate,
    GeoCorroborationPredicate,
    KeystrokeCorroborationPredicate,
    NormBoundPredicate,
    PurchaseCorroborationPredicate,
    RangeCheckPredicate,
    RateLimitPredicate,
    trace_commitment,
)
from repro.core.validation import PrivateContext, RoundFacts, default_registry
from repro.crypto.drbg import HmacDrbg
from repro.errors import ConfigurationError
from repro.sgx.counters import MonotonicCounter
from repro.workloads.geo import GeoWorkload
from repro.workloads.keyboard import (
    empty_trace,
    robotic_trace_for_sentences,
    trace_for_sentences,
)
from repro.workloads.reviews import ReviewWorkload

FEATURES = (("donald", "trump"), ("voting", "for"), ("don't", "like"))


def ctx(**kwargs):
    return PrivateContext(**kwargs)


def facts(round_id=1, counter=None):
    """What a Glimmer attaches: the round, the list, a fresh counter."""
    return RoundFacts(round_id, FEATURES, counter or MonotonicCounter(b"m" * 32, "contribs"))


# ------------------------------------------------------------------ accept-all

def test_accept_all_passes_anything():
    outcome = AcceptAllPredicate().evaluate([538.0, -1e9], ctx(), facts())
    assert outcome.passed
    assert outcome.confidence == 0.0


# ----------------------------------------------------------------------- range

def test_range_accepts_legal():
    outcome = RangeCheckPredicate(0.0, 1.0).evaluate([0.0, 0.5, 1.0], ctx(), facts())
    assert outcome.passed


def test_range_rejects_538():
    outcome = RangeCheckPredicate(0.0, 1.0).evaluate([538.0, 0.5], ctx(), facts())
    assert not outcome.passed
    assert "538" in outcome.reason


def test_range_rejects_negative():
    assert not RangeCheckPredicate(0.0, 1.0).evaluate([-0.01], ctx(), facts()).passed


def test_range_boundaries_inclusive():
    assert RangeCheckPredicate(0.0, 1.0).evaluate([0.0, 1.0], ctx(), facts()).passed


def test_range_invalid_bounds():
    with pytest.raises(ConfigurationError):
        RangeCheckPredicate(1.0, 0.0)


def test_range_cycles_scale_with_length():
    short = RangeCheckPredicate().evaluate([0.5] * 2, ctx(), facts())
    long = RangeCheckPredicate().evaluate([0.5] * 200, ctx(), facts())
    assert long.cycles > short.cycles


def test_range_empty_vector_passes():
    assert RangeCheckPredicate().evaluate([], ctx(), facts()).passed


@settings(max_examples=50)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), max_size=16))
def test_range_property_legal_always_passes(values):
    assert RangeCheckPredicate(0.0, 1.0).evaluate(values, ctx(), facts()).passed


@settings(max_examples=50)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), max_size=8),
    st.floats(min_value=1.001, max_value=1e6, allow_nan=False),
)
def test_range_property_any_violation_fails(values, bad):
    assert not RangeCheckPredicate(0.0, 1.0).evaluate(values + [bad], ctx(), facts()).passed


# ------------------------------------------------------------------------ norm

def test_norm_accepts_within_bound():
    assert NormBoundPredicate(2.0).evaluate([1.0, 1.0], ctx(), facts()).passed


def test_norm_rejects_beyond_bound():
    assert not NormBoundPredicate(1.0).evaluate([1.0, 1.0], ctx(), facts()).passed


def test_norm_invalid_bound():
    with pytest.raises(ConfigurationError):
        NormBoundPredicate(0.0)


# ------------------------------------------------------------------------ rate

def test_rate_limit_allows_up_to_max():
    predicate = RateLimitPredicate(max_per_round=2)
    round_1 = facts()
    assert predicate.evaluate([0.5], ctx(), round_1).passed
    assert predicate.evaluate([0.5], ctx(), round_1).passed
    assert not predicate.evaluate([0.5], ctx(), round_1).passed


def test_rate_limit_per_round_isolation():
    """Each round counts on its own counter."""
    predicate = RateLimitPredicate(max_per_round=1)
    assert predicate.evaluate([0.5], ctx(), facts(round_id=1)).passed
    assert predicate.evaluate([0.5], ctx(), facts(round_id=2)).passed


def test_rate_limit_uses_monotonic_counter():
    predicate = RateLimitPredicate(max_per_round=1)
    counter = MonotonicCounter(b"m" * 32, "contribs")
    assert predicate.evaluate([0.5], ctx(), facts(counter=counter)).passed
    # Even a fresh predicate instance (enclave restart) sees the counter.
    restarted = RateLimitPredicate(max_per_round=1)
    assert not restarted.evaluate([0.5], ctx(), facts(counter=counter)).passed


def test_rate_limit_invalid():
    with pytest.raises(ConfigurationError):
        RateLimitPredicate(0)


# ------------------------------------------------------------------ keystrokes

def make_sentences():
    return [["voting", "for", "donald", "trump"], ["donald", "trump"]]


def weights_for(sentences):
    from repro.core.predicates import _weights_from_sentences

    return _weights_from_sentences(sentences, FEATURES)


def test_keystrokes_accepts_honest():
    sentences = make_sentences()
    trace = trace_for_sentences(sentences, HmacDrbg(b"kp"))
    values = weights_for(sentences)
    outcome = KeystrokeCorroborationPredicate(0.1).evaluate(
        values, ctx(keystroke_trace=trace), facts()
    )
    assert outcome.passed


def test_keystrokes_rejects_missing_trace():
    assert not KeystrokeCorroborationPredicate().evaluate(
        [0.5] * 3, ctx(keystroke_trace=None), facts()
    ).passed


def test_keystrokes_rejects_empty_trace():
    assert not KeystrokeCorroborationPredicate().evaluate(
        [1.0] * 3, ctx(keystroke_trace=empty_trace()), facts()
    ).passed


def test_keystrokes_rejects_robotic_timing():
    sentences = make_sentences()
    trace = robotic_trace_for_sentences(sentences)
    values = weights_for(sentences)
    outcome = KeystrokeCorroborationPredicate(0.1).evaluate(
        values, ctx(keystroke_trace=trace), facts()
    )
    assert not outcome.passed
    assert "machine-like" in outcome.reason


def test_keystrokes_rejects_mismatched_weights():
    sentences = make_sentences()
    trace = trace_for_sentences(sentences, HmacDrbg(b"kp"))
    outcome = KeystrokeCorroborationPredicate(0.1).evaluate(
        [1.0, 1.0, 1.0], ctx(keystroke_trace=trace), facts()
    )
    # honest trace has no "don't like", so weight 1.0 there cannot corroborate
    assert not outcome.passed


def test_keystrokes_tolerance_loosens():
    sentences = make_sentences()
    trace = trace_for_sentences(sentences, HmacDrbg(b"kp"))
    values = [min(1.0, w + 0.3) for w in weights_for(sentences)]
    strict = KeystrokeCorroborationPredicate(0.05).evaluate(
        values, ctx(keystroke_trace=trace), facts()
    )
    loose = KeystrokeCorroborationPredicate(0.9).evaluate(
        values, ctx(keystroke_trace=trace), facts()
    )
    assert not strict.passed
    assert loose.passed


# ------------------------------------------------------------------ exec-trace

def test_exec_trace_accepts_honest():
    sentences = make_sentences()
    values = weights_for(sentences)
    commitment = trace_commitment(sentences, values)
    outcome = ExecutionTracePredicate(0.01).evaluate(
        values, ctx(sentences=sentences, trace_commitment=commitment), facts()
    )
    assert outcome.passed


def test_exec_trace_rejects_wrong_commitment():
    sentences = make_sentences()
    values = weights_for(sentences)
    outcome = ExecutionTracePredicate(0.01).evaluate(
        values,
        ctx(sentences=sentences, trace_commitment=b"\x00" * 32),
        facts(),
    )
    assert not outcome.passed


def test_exec_trace_rejects_inconsistent_weights():
    sentences = make_sentences()
    honest_values = weights_for(sentences)
    commitment = trace_commitment(sentences, honest_values)
    lied_values = [1.0] * len(FEATURES)
    outcome = ExecutionTracePredicate(0.01).evaluate(
        lied_values, ctx(sentences=sentences, trace_commitment=commitment), facts()
    )
    assert not outcome.passed


def test_exec_trace_rejects_missing_context():
    outcome = ExecutionTracePredicate().evaluate([0.5] * 3, ctx(sentences=None), facts())
    assert not outcome.passed


def test_trace_commitment_sensitive_to_inputs():
    sentences = make_sentences()
    values = weights_for(sentences)
    base = trace_commitment(sentences, values)
    assert trace_commitment(sentences, values) == base
    assert trace_commitment(sentences[:1], values) != base
    assert trace_commitment(sentences, [v + 0.001 for v in values]) != base


# ------------------------------------------------------------------------- geo

@pytest.fixture(scope="module")
def geo_workload():
    return GeoWorkload.generate(4, HmacDrbg(b"geo-pred"), photos_per_user=6)


def test_geo_accepts_honest_rejects_spoofed(geo_workload):
    predicate = GeoCorroborationPredicate(radius=25.0)
    for photo in geo_workload.submissions:
        context = ctx(
            geo_context=geo_workload.contexts[photo.user_id], submission=photo,
        )
        outcome = predicate.evaluate([], context, facts())
        assert outcome.passed != photo.is_spoofed, (photo.photo_id, outcome.reason)


def test_geo_rejects_missing_context(geo_workload):
    predicate = GeoCorroborationPredicate()
    photo = geo_workload.submissions[0]
    assert not predicate.evaluate([], ctx(submission=photo), facts()).passed
    assert not predicate.evaluate(
        [], ctx(geo_context=geo_workload.contexts[photo.user_id]), facts()
    ).passed


def test_geo_invalid_radius():
    with pytest.raises(ConfigurationError):
        GeoCorroborationPredicate(radius=0.0)


# -------------------------------------------------------------------- purchase

@pytest.fixture(scope="module")
def review_workload():
    return ReviewWorkload.generate(6, HmacDrbg(b"review-pred"))


def test_purchase_corroboration(review_workload):
    predicate = PurchaseCorroborationPredicate()
    for review in review_workload.reviews:
        context = ctx(
            shopping_context=review_workload.contexts[review.user_id], review=review,
        )
        outcome = predicate.evaluate([], context, facts())
        assert outcome.passed != review.is_spurious, review.review_id


def test_purchase_missing_context(review_workload):
    predicate = PurchaseCorroborationPredicate()
    review = review_workload.reviews[0]
    assert not predicate.evaluate([], ctx(review=review), facts()).passed


# ----------------------------------------------------------------------- chain

def test_chain_all_pass():
    chain = ChainPredicate([RangeCheckPredicate(), NormBoundPredicate(10.0)])
    outcome = chain.evaluate([0.5, 0.5], ctx(), facts())
    assert outcome.passed
    assert outcome.cycles > 0


def test_chain_short_circuits_on_failure():
    chain = ChainPredicate([RangeCheckPredicate(), NormBoundPredicate(10.0)])
    outcome = chain.evaluate([538.0], ctx(), facts())
    assert not outcome.passed
    assert "range" in outcome.reason


def test_chain_confidence_is_minimum():
    chain = ChainPredicate([AcceptAllPredicate(), RangeCheckPredicate()])
    assert chain.evaluate([0.5], ctx(), facts()).confidence == 0.0


def test_chain_requires_members():
    with pytest.raises(ConfigurationError):
        ChainPredicate([])


def test_chain_required_context_union():
    chain = ChainPredicate(
        [RangeCheckPredicate(), KeystrokeCorroborationPredicate()]
    )
    assert chain.required_context() == ("keystroke_trace",)


# -------------------------------------------------------------------- registry

def test_registry_builds_every_known_spec():
    registry = default_registry()
    for spec in (
        "accept-all",
        "range:0.0:1.0",
        "norm:4.0",
        "rate:2",
        "keystrokes:0.2",
        "exec-trace:0.05",
        "geo:30.0",
        "purchase",
        "chain:range,0.0,1.0+norm,5.0",
    ):
        predicate = registry.build(spec)
        assert hasattr(predicate, "evaluate")


def test_registry_unknown_spec():
    with pytest.raises(ConfigurationError):
        default_registry().build("nonexistent:1:2")


def test_registry_duplicate_registration():
    registry = default_registry()
    with pytest.raises(ConfigurationError):
        registry.register("range", lambda: None)


def test_registry_chain_spec_behaves():
    chain = default_registry().build("chain:range,0.0,1.0+norm,0.5")
    assert chain.evaluate([0.1], ctx(), facts()).passed
    assert not chain.evaluate([0.9, 0.9], ctx(), facts()).passed  # norm violated
    assert not chain.evaluate([5.0], ctx(), facts()).passed  # range violated

"""Tests for the trainer, aggregation, inversion, poisoning, and metrics."""

from typing import Mapping

import numpy as np
import pytest

from repro.crypto.drbg import HmacDrbg
from repro.errors import ConfigurationError
from repro.federated.aggregation import FederatedAggregator
from repro.federated.inversion import InversionAttacker, StanceEvidence
from repro.federated.metrics import (
    attribute_inference_advantage,
    model_distance,
    top1_accuracy,
)
from repro.federated.model import BigramModel, FeatureSpace
from repro.federated.poisoning import Poisoner
from repro.federated.trainer import LocalTrainer
from repro.workloads.text import KeyboardCorpus, stance_evidence


@pytest.fixture(scope="module")
def corpus():
    return KeyboardCorpus.generate(12, HmacDrbg(b"fed-tests"), sentences_per_user=25)


@pytest.fixture(scope="module")
def features(corpus):
    return FeatureSpace.from_corpus(corpus.all_sentences())


@pytest.fixture(scope="module")
def vectors(corpus, features):
    trainer = LocalTrainer(features)
    return {
        user.user_id: trainer.train(corpus.streams[user.user_id]).contribution()
        for user in corpus.users
    }


def test_trainer_matches_model_train(corpus, features):
    user = corpus.users[0].user_id
    trained = LocalTrainer(features).train(corpus.streams[user])
    direct = BigramModel.train(features, corpus.streams[user])
    assert np.allclose(trained.model.weights, direct.weights)


def test_trainer_records_evidence(corpus, features):
    user = corpus.users[0].user_id
    result = LocalTrainer(features).train(corpus.streams[user])
    assert result.num_sentences == len(corpus.streams[user])
    assert result.num_tokens == sum(len(s) for s in corpus.streams[user])
    assert sum(result.pair_counts.values()) == result.num_tokens - result.num_sentences


def test_aggregate_is_mean(features, vectors):
    aggregator = FederatedAggregator(features)
    model = aggregator.aggregate(list(vectors.values()))
    expected = np.mean(np.stack(list(vectors.values())), axis=0)
    assert np.allclose(model.weights, expected)


def test_aggregate_sum_path(features, vectors):
    aggregator = FederatedAggregator(features)
    total = np.sum(np.stack(list(vectors.values())), axis=0)
    model = aggregator.aggregate_sum(total, len(vectors))
    expected = aggregator.aggregate(list(vectors.values()))
    assert np.allclose(model.weights, expected.weights)


def test_aggregate_validations(features):
    aggregator = FederatedAggregator(features)
    with pytest.raises(ConfigurationError):
        aggregator.aggregate([])
    with pytest.raises(ConfigurationError):
        aggregator.aggregate([np.zeros(len(features) + 1)])
    with pytest.raises(ConfigurationError):
        aggregator.aggregate_sum(np.zeros(len(features)), 0)


def test_aggregate_predicts_trending_topic(corpus, features, vectors):
    model = FederatedAggregator(features).aggregate(list(vectors.values()))
    assert model.top_prediction("donald") == "trump"


def test_inversion_recovers_stances(corpus, features, vectors):
    attacker = InversionAttacker(features, stance_evidence())
    assert attacker.accuracy(vectors, corpus.labels()) >= 0.9


def test_inversion_on_aggregate_is_uninformative_per_user(corpus, features, vectors):
    attacker = InversionAttacker(features, stance_evidence())
    aggregate = np.mean(np.stack(list(vectors.values())), axis=0)
    guess = attacker.infer(aggregate)
    labels = corpus.labels()
    accuracy = sum(1 for u in labels if labels[u] == guess) / len(labels)
    assert accuracy <= 0.6  # cohort is balanced, one guess fits half


def test_inversion_validations(features):
    with pytest.raises(ConfigurationError):
        InversionAttacker(
            features,
            StanceEvidence("a", "b", positive_markers=(), negative_markers=()),
        )
    attacker = InversionAttacker(features, stance_evidence())
    with pytest.raises(ConfigurationError):
        attacker.accuracy({}, {})


def test_poisoner_magnitude_attack(features, vectors):
    poisoner = Poisoner(features, [features.bigrams[0]])
    base = next(iter(vectors.values()))
    poisoned = poisoner.magnitude_attack(base, 538.0)
    assert poisoned.vector[0] == 538.0
    assert poisoned.strategy == "magnitude"
    # untargeted parameters untouched
    assert np.array_equal(poisoned.vector[1:], base[1:])


def test_poisoner_boost_stays_in_range(features, vectors):
    poisoner = Poisoner(features, [features.bigrams[0]])
    poisoned = poisoner.boost_in_range_attack(next(iter(vectors.values())), 1.0)
    assert 0.0 <= poisoned.vector[0] <= 1.0
    with pytest.raises(ConfigurationError):
        poisoner.boost_in_range_attack(next(iter(vectors.values())), 2.0)


def test_poisoner_fabricated_attack_is_self_consistent(features):
    poisoner = Poisoner(features, [features.bigrams[0]])
    poisoned = poisoner.fabricated_consistent_attack(repetitions=10)
    retrained = LocalTrainer(features).train(poisoned.forged_sentences)
    assert np.allclose(retrained.contribution(), poisoned.vector)
    assert poisoned.fabrication_effort > 0


def test_poisoner_requires_targets(features):
    with pytest.raises(ConfigurationError):
        Poisoner(features, [])


def test_poisoner_skew_measures_target_movement(features, vectors):
    poisoner = Poisoner(features, [features.bigrams[0]])
    before = np.zeros(len(features))
    after = before.copy()
    after[0] = 53.8
    assert poisoner.skew(before, after) == pytest.approx(53.8)


def test_top1_accuracy_bounds(corpus, features, vectors):
    model = FederatedAggregator(features).aggregate(list(vectors.values()))
    holdout = corpus.holdout(HmacDrbg(b"holdout"))
    accuracy = top1_accuracy(model, holdout)
    assert 0.0 < accuracy <= 1.0


def test_top1_accuracy_empty_model(features):
    assert top1_accuracy(BigramModel(features), [["donald", "trump"]]) == 0.0


def test_attribute_inference_advantage():
    assert attribute_inference_advantage(0.5) == pytest.approx(0.0)
    assert attribute_inference_advantage(1.0) == pytest.approx(1.0)
    assert attribute_inference_advantage(0.75) == pytest.approx(0.5)
    with pytest.raises(ConfigurationError):
        attribute_inference_advantage(0.5, num_classes=1)


def test_model_distance(features):
    a = BigramModel(features, np.zeros(len(features)))
    b = BigramModel(features, np.zeros(len(features)))
    assert model_distance(a, b) == 0.0
    b.weights[2] = 0.7
    assert model_distance(a, b) == pytest.approx(0.7)


def test_model_distance_requires_same_features(features):
    other = FeatureSpace(bigrams=(("x", "y"),))
    with pytest.raises(ConfigurationError):
        model_distance(BigramModel(features), BigramModel(other))


def prediction_changed(
    honest: BigramModel, attacked: BigramModel, word: str
) -> bool:
    """Did the attack flip the model's suggestion for ``word``?"""
    return honest.top_prediction(word) != attacked.top_prediction(word)


def empirical_accuracy(
    guesses: Mapping[str, str], truth: Mapping[str, str]
) -> float:
    """Fraction of correct guesses over the keys present in ``guesses``."""
    if not guesses:
        raise ConfigurationError("no guesses to score")
    hits = sum(1 for key, guess in guesses.items() if truth.get(key) == guess)
    return hits / len(guesses)


def test_prediction_changed(features, vectors):
    model = FederatedAggregator(features).aggregate(list(vectors.values()))
    same = model.copy()
    assert not prediction_changed(model, same, "donald")


def test_empirical_accuracy():
    assert empirical_accuracy({"a": "x", "b": "y"}, {"a": "x", "b": "z"}) == 0.5
    with pytest.raises(ConfigurationError):
        empirical_accuracy({}, {})

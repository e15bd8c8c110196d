"""Utility and privacy metrics for the federated experiments.

Three quantities recur throughout the evaluation:

* **utility** — next-word prediction accuracy of a model against held-out
  sentences (:func:`top1_accuracy`), the benefit users get from sharing;
* **leakage** — an attribute-inference attacker's *advantage* over random
  guessing (:func:`attribute_inference_advantage`), the privacy cost;
* **integrity damage** — distance between the honest aggregate and the
  aggregate under attack (:func:`model_distance`, plus per-parameter skew
  in :mod:`repro.federated.poisoning`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.federated.model import BigramModel


def top1_accuracy(
    model: BigramModel, sentences: Sequence[Sequence[str]]
) -> float:
    """Fraction of (tracked-context) next-word events the model predicts.

    Only contexts the feature space tracks are scored; a model that has
    seen no data scores 0 because its top predictions are empty.
    """
    tracked_firsts = model.features.first_words()
    attempts = 0
    hits = 0
    for sentence in sentences:
        for left, right in zip(sentence, sentence[1:]):
            if left not in tracked_firsts:
                continue
            attempts += 1
            if model.top_prediction(left) == right:
                hits += 1
    if attempts == 0:
        return 0.0
    return hits / attempts


def attribute_inference_advantage(
    accuracy: float, num_classes: int = 2
) -> float:
    """Attacker advantage over random guessing, normalized to [~0, 1].

    0 means the attack does no better than chance; 1 means perfect
    recovery.  (Slightly negative values can occur by sampling noise.)
    """
    if num_classes < 2:
        raise ConfigurationError("need at least two classes")
    chance = 1.0 / num_classes
    return (accuracy - chance) / (1.0 - chance)


def model_distance(a: BigramModel, b: BigramModel) -> float:
    """L∞ distance between two models' weights (worst-parameter skew)."""
    if a.features.bigrams != b.features.bigrams:
        raise ConfigurationError("models use different feature spaces")
    return float(np.max(np.abs(a.weights - b.weights))) if len(a.weights) else 0.0

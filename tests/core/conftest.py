"""Shared fixtures for core (Glimmer) tests: a small, fast deployment."""

import numpy as np
import pytest

from repro.crypto.masking import remove_mask
from repro.experiments.common import Deployment
from repro.perf import kernels


def unblinded(blinded: bytes, mask, width: int) -> np.ndarray:
    """The encoded contribution under blinded words at their round's
    ``width``: the mask comes off in ``Z/2^64``, and the residue widens
    back exactly."""
    return kernels.widen(remove_mask(kernels.unpack_words(blinded, width), mask), width)


@pytest.fixture(scope="module")
def deployment():
    """A 4-user deployment over the TEST_GROUP, fully provisioned."""
    return Deployment.build(num_users=4, seed=b"core-tests", sentences_per_user=20)


@pytest.fixture
def fresh_deployment():
    """A per-test deployment for tests that mutate round state."""
    return Deployment.build(num_users=3, seed=b"core-tests-fresh", sentences_per_user=15)

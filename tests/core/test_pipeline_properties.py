"""Property-based tests on the full Glimmer pipeline.

The end-to-end invariant: for any in-range contribution vectors, a blinded
round recovers their exact mean, and the signed payloads on the wire are
uncorrelated with the plaintext values.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.common import Deployment

# One module-level deployment; each hypothesis example uses a fresh round id.
_DEPLOYMENT = Deployment.build(
    num_users=3, seed=b"pipeline-properties", sentences_per_user=10
)
_ROUND = {"next": 100}


def _fresh_round():
    _ROUND["next"] += 1
    return _ROUND["next"]


@settings(max_examples=15, deadline=None)
@given(
    rows=st.lists(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=1,
        ),
        min_size=3,
        max_size=3,
    )
)
def test_blinded_round_recovers_exact_mean(rows):
    deployment = _DEPLOYMENT
    features = deployment.features
    round_id = _fresh_round()
    user_ids = [user.user_id for user in deployment.corpus.users]
    # Pad each user's single sampled value across the whole feature vector.
    vectors = {
        user_id: [rows[i][0]] * len(features)
        for i, user_id in enumerate(user_ids)
    }
    deployment.open_round(round_id, user_ids)
    for user_id in user_ids:
        signed = deployment.clients[user_id].contribute(
            round_id, vectors[user_id], features.bigrams
        )
        assert deployment.service.submit(
            round_id, signed, deployment.clients[user_id].party_index_for(round_id)
        )
    result = deployment.service.finalize_blinded_round(round_id)
    expected = np.mean(np.stack([vectors[u] for u in user_ids]), axis=0)
    assert np.allclose(result.aggregate, expected, atol=1e-3)


@settings(max_examples=10, deadline=None)
@given(value=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_wire_payload_independent_of_plaintext(value):
    """The same plaintext blinds to different ring values across rounds, and
    the ring payload never equals the plain encoding.

    Rounds are opened for two parties: with a single party the sum-zero
    constraint forces the mask to zero (an aggregate of one *is* the value —
    there is nothing blinding could hide), so the privacy property only
    exists for cohorts of at least two.
    """
    deployment = _DEPLOYMENT
    features = deployment.features
    user_id = deployment.corpus.users[0].user_id
    payloads = []
    for __ in range(2):
        round_id = _fresh_round()
        deployment.blinder_provisioner.open_round(round_id, 2, len(features))
        deployment.service.open_round(round_id, 2)
        deployment.clients[user_id].provision_mask(
            deployment.blinder_provisioner, round_id, 0
        )
        signed = deployment.clients[user_id].contribute(
            round_id, [value] * len(features), features.bigrams
        )
        payloads.append(signed.ring_payload)
    encoded = tuple(deployment.codec.encode([value] * len(features)))
    assert payloads[0] != payloads[1]
    assert payloads[0] != encoded
    assert payloads[1] != encoded


@settings(max_examples=10, deadline=None)
@given(
    bad_index=st.integers(min_value=0, max_value=4),
    magnitude=st.floats(min_value=1.01, max_value=1e6, allow_nan=False),
)
def test_any_out_of_range_value_rejected(bad_index, magnitude):
    from repro.errors import ValidationError

    deployment = _DEPLOYMENT
    features = deployment.features
    round_id = _fresh_round()
    user_id = deployment.corpus.users[0].user_id
    deployment.blinder_provisioner.open_round(round_id, 1, len(features))
    deployment.clients[user_id].provision_mask(
        deployment.blinder_provisioner, round_id, 0
    )
    values = [0.5] * len(features)
    values[bad_index % len(features)] = magnitude
    with pytest.raises(ValidationError):
        deployment.clients[user_id].contribute(round_id, values, features.bigrams)

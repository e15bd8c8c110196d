"""One end-to-end round at realistic key sizes (Oakley 768-bit group).

Everything else runs over the fast 64-bit TEST_GROUP; this single test
confirms nothing in the pipeline silently depends on the small group —
handshakes, Schnorr signatures, mask delivery, and the service checks all
behave identically at real-world parameter sizes.
"""

import numpy as np
import pytest

from repro.core.glimmer import pack_features
from repro.crypto.dh import OAKLEY_GROUP_1
from repro.errors import ValidationError
from repro.experiments.common import Deployment


@pytest.fixture(scope="module")
def oakley_deployment():
    return Deployment.build(
        num_users=2, seed=b"oakley-e2e", sentences_per_user=8, group=OAKLEY_GROUP_1
    )


def test_full_round_at_real_key_sizes(oakley_deployment):
    deployment = oakley_deployment
    user_ids = [u.user_id for u in deployment.corpus.users]
    deployment.open_round(1, user_ids)
    vectors = deployment.local_vectors()
    for user_id in user_ids:
        signed = deployment.clients[user_id].contribute(
            1, list(vectors[user_id]), pack_features(deployment.features.bigrams)
        )
        assert deployment.service.submit(
            1, signed, deployment.clients[user_id].party_index_for(1)
        )
    result = deployment.service.finalize_blinded_round(1)
    expected = np.mean(np.stack([vectors[u] for u in user_ids]), axis=0)
    assert np.allclose(result.aggregate, expected, atol=1e-3)


def test_validation_still_bites_at_real_key_sizes(oakley_deployment):
    deployment = oakley_deployment
    user_id = deployment.corpus.users[0].user_id
    deployment.blinder_provisioner.open_round(2, 1, len(deployment.features))
    deployment.clients[user_id].provision_mask(deployment.blinder_provisioner, 2, 0)
    with pytest.raises(ValidationError):
        deployment.clients[user_id].contribute(
            2,
            [538.0] + [0.0] * (len(deployment.features) - 1),
            pack_features(deployment.features.bigrams),
        )

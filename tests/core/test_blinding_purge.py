"""Regression: a long-lived Glimmer's mask table must stay bounded.

Before the purge hooks existed, every provisioned-but-unconsumed mask
(dropout rounds, aborted rounds) stayed in ``BlindingComponent._masks``
forever.  These tests pin the bound at three layers: the component, the
enclave ecall, and a full deployment running many rounds.
"""

from __future__ import annotations

import pytest

from repro.core.blinding import MASK_DIGEST_HISTORY, BlindingComponent
from repro.crypto.fixedpoint import ring_width
from repro.crypto.masking import MaskShare
from repro.errors import CryptoError, MaskVerificationError
from repro.experiments.common import Deployment
from repro.perf import kernels


#: The width of the 3-slot rounds these masks belong to.
WIDTH = ring_width(3)


def _mask(i: int) -> MaskShare:
    return MaskShare(2, words=kernels.be_words_to_bytes((i + 1, 2 * i + 1)))


def _install(component, round_id: int, party: int, share: MaskShare) -> None:
    component.install_mask(round_id, party, share, share.row(), WIDTH)


def _held(component, rounds) -> int:
    return sum(len(component.masks_for_round(round_id)) for round_id in rounds)


def test_purge_round_drops_only_that_rounds_masks():
    component = BlindingComponent()
    for round_id in (1, 2):
        for party in range(3):
            _install(component, round_id, party, _mask(10 * round_id + party))
    assert _held(component, (1, 2)) == 6
    assert component.purge_round(1) == 3
    assert _held(component, (1, 2)) == 3
    assert not component.has_mask(1, 0)
    assert component.has_mask(2, 0)
    assert component.purge_round(1) == 0  # idempotent


def test_unconsumed_rounds_no_longer_grow_without_bound():
    component = BlindingComponent()
    for round_id in range(1, 201):
        _install(component, round_id, 0, _mask(round_id))
        component.purge_round(round_id)  # what the engine's close now does
    assert _held(component, range(1, 201)) == 0


def test_reuse_detection_survives_a_purge():
    # Purging a round must not let the blinder replay that round's mask.
    component = BlindingComponent()
    _install(component, 1, 0, _mask(1))
    component.purge_round(1)
    with pytest.raises(MaskVerificationError):
        _install(component, 2, 0, _mask(1))


def test_seen_digest_history_is_fifo_capped():
    component = BlindingComponent()
    for round_id in range(1, MASK_DIGEST_HISTORY + 10):
        _install(component, round_id, 0, _mask(round_id))
        component.purge_round(round_id)
    assert len(component._seen_digests) <= MASK_DIGEST_HISTORY


def test_double_install_still_refused():
    component = BlindingComponent()
    _install(component, 1, 0, _mask(1))
    with pytest.raises(CryptoError):
        _install(component, 1, 0, _mask(2))


def test_engine_rounds_leave_no_mask_state_behind():
    deployment = Deployment.build(
        num_users=3, seed=b"purge-e2e", sentences_per_user=10
    )
    user_ids = [user.user_id for user in deployment.corpus.users]
    for round_id in range(1, 6):
        # A collect dropout is the leak that motivated the purge: its mask
        # is provisioned and charged to a slot but never consumed.
        deployment.engine.run_round(
            round_id,
            user_ids,
            deployment.local_vectors(),
            deployment.features.bigrams,
            collect_dropouts=(user_ids[round_id % len(user_ids)],),
            recovery_threshold=0.25,
        )
    for user_id in user_ids:
        client = deployment.clients[user_id]
        for round_id in range(1, 6):
            assert not client.glimmer.ecall("has_mask", round_id), (
                f"{user_id} still holds a mask for closed round {round_id}"
            )

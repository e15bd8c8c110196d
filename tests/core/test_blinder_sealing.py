"""The blinder seals a round's seeds, not its mask rows.

The sealed blob is a fixed byte layout (DESIGN.md §3 "Sealed rounds"):
the family's shape, one 32-byte seed per subgroup and the seed of the
commitment openings.  So its size does not depend on the vector length,
a restart rebuilds the same seeded family (O(g) resident, not O(n·k)),
and the republished commitments, openings and reveals are byte-identical.
"""

from __future__ import annotations

import pytest

from repro.crypto.cipher import AuthenticatedCipher
from repro.crypto.masking import GroupedSumZeroMasks, SumZeroMasks
from repro.errors import CryptoError
from repro.experiments.common import Deployment


@pytest.fixture
def blinder():
    return Deployment.build(num_users=2, seed=b"blinder-sealing").blinder_provisioner


def test_sealed_round_size_does_not_depend_on_vector_length(blinder):
    blinder.open_round(1, 32, 77, subgroup_size=8)
    blinder.open_round(2, 32, 4096, subgroup_size=8)
    blinder.open_round(3, 192, 77)
    sealed = blinder._sealed_rounds
    assert len(sealed[1]) == len(sealed[2])
    assert len(sealed[3]) <= 1024


@pytest.mark.parametrize("subgroup_size", [0, 8])
def test_restart_republishes_the_same_round(blinder, subgroup_size):
    num_slots = 64
    published = blinder.open_round(1, num_slots, 16, subgroup_size=subgroup_size)
    family = blinder.blinding._round_masks[1]
    openings = [blinder.mask_opening(1, slot) for slot in range(num_slots)]
    reveals = [blinder.reveal_dropout_mask(1, slot) for slot in range(num_slots)]

    blinder.crash()
    assert blinder.restart() == [1]

    assert blinder.round_commitments(1).root() == published.root()
    assert [blinder.mask_opening(1, slot) for slot in range(num_slots)] == openings
    assert [
        blinder.reveal_dropout_mask(1, slot) for slot in range(num_slots)
    ] == reveals
    restored = blinder.blinding._round_masks[1]
    assert isinstance(restored, GroupedSumZeroMasks)
    assert restored == family and restored.seeds == family.seeds
    assert restored.plan.num_groups == (8 if subgroup_size else 1)
    # What stays per subgroup is its shares: slot seeds and one row.
    for family in restored._families.values():
        assert sum(share.words is not None for share in family.shares) == 1
        assert "masks" not in vars(family)  # no row expanded and kept


def _flip(blob, _other):
    damaged = bytearray(blob)
    damaged[len(blob) // 2] ^= 0x01
    return bytes(damaged)


@pytest.mark.parametrize(
    "damage",
    [
        _flip,
        lambda blob, _other: blob[:-1],
        lambda blob, _other: blob + b"\x00",
        lambda _blob, other: other,
    ],
    ids=["bit-flipped", "truncated", "extended", "wrong-round"],
)
def test_a_damaged_sealed_round_is_refused_at_restart(blinder, damage):
    blinder.open_round(1, 8, 4, subgroup_size=4)
    blinder.open_round(2, 8, 4)
    sealed = blinder._sealed_rounds
    sealed[1] = damage(sealed[1], sealed[2])
    blinder.crash()
    with pytest.raises(CryptoError):
        blinder.restart()


@pytest.mark.parametrize(
    "plaintext",
    [
        b"\x00\x40" + (4).to_bytes(4, "big"),  # header cut short
        b"\x00\x40" + b"".join(n.to_bytes(4, "big") for n in (4, 8, 9)),  # g > n
        b"\x00\x40" + b"".join(n.to_bytes(4, "big") for n in (4, 8, 4)) + b"s" * 64,
    ],
    ids=["short-header", "bad-shape", "missing-seed"],
)
def test_an_authentic_blob_with_a_bad_layout_is_refused(blinder, plaintext):
    """The layout is length-checked even behind a valid tag."""
    blinder.open_round(1, 8, 4)
    box = AuthenticatedCipher(blinder._seal_key).encrypt(
        b"n" * 16, plaintext, associated_data=(1).to_bytes(8, "big")
    )
    blinder._sealed_rounds[1] = box.to_bytes()
    blinder.crash()
    with pytest.raises(CryptoError):
        blinder.restart()


def test_a_flat_round_is_expanded_once(blinder, monkeypatch):
    """Committing a one-group round warms its family, so no delivery or
    reveal expands it again."""
    sample = SumZeroMasks.sample.__func__
    calls = []

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return sample(cls, *args, **kwargs)

    monkeypatch.setattr(SumZeroMasks, "sample", classmethod(counted))
    blinder.open_round(1, 16, 8)
    for slot in range(16):
        blinder.mask_opening(1, slot)
        blinder.reveal_dropout_mask(1, slot)
    assert len(calls) == 1

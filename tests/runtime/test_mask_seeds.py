"""Masks cross and rest as seeds.

Every slot but a subgroup's last is delivered, checkpointed and revealed
as its own 32-byte seed, derived one-way from its subgroup's seed; the
last slot is its words.  A seed that does not expand to the committed
mask is the blinder's lie, a breached Glimmer holds no other slot's row,
and the reply leg a round sends is metered beside its requests.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import replace

import pytest

from repro import codec
from repro.crypto import masking
from repro.crypto.commitments import commit_masks, resolve_group, verify_opening
from repro.crypto.drbg import HmacDrbg
from repro.crypto.masking import SumZeroMasks, expand_seed
from repro.errors import MaskVerificationError, RoundAbortedError
from repro.experiments.common import Deployment
from repro.network.adversary import EavesdropAdversary
from repro.network.transport import REPLY_SUFFIX
from repro.runtime.protocol import VIOLATION_MASK_OPENING


def _flipped(share):
    return replace(share, seed=bytes([share.seed[0] ^ 1]) + share.seed[1:])


def test_a_family_is_seeds_and_one_row():
    family = SumZeroMasks.sample(5, 16, HmacDrbg(b"seed-family"))
    seeds = [share.seed for share in family.shares[:-1]]
    assert all(len(seed) == 32 for seed in seeds) and len(set(seeds)) == 4
    assert family.shares[-1].seed is None and len(family.shares[-1].words) == 8 * 16
    assert tuple(share.row() for share in family.shares[:-1]) == tuple(
        expand_seed(seed, 16) for seed in seeds
    )
    assert family.verify_sum_zero()


def test_a_tampered_seed_fails_its_opening():
    family = SumZeroMasks.sample(3, 8, HmacDrbg(b"seed-open"))
    commitments, openings = commit_masks(
        resolve_group("test-64bit"), 1, family.shares, HmacDrbg(b"seed-open-r")
    )
    assert openings[0].share.seed is not None
    verify_opening(commitments.record_for(0), 0, openings[0])
    tampered = replace(openings[0], share=_flipped(openings[0].share))
    with pytest.raises(MaskVerificationError):
        verify_opening(commitments.record_for(0), 0, tampered)
    with pytest.raises(MaskVerificationError):
        verify_opening(commitments, 0, tampered)


def test_a_tampered_seed_aborts_the_round_blaming_the_blinder():
    deployment = Deployment.build(num_users=4, seed=b"seed-tamper")
    provisioner = deployment.blinder_provisioner
    honest, lied = provisioner.mask_opening, []

    def mask_opening(round_id, party_index):
        opening = honest(round_id, party_index)
        if lied or opening.share.seed is None:
            return opening
        lied.append(party_index)
        return replace(opening, share=_flipped(opening.share))

    provisioner.mask_opening = mask_opening
    with pytest.raises(RoundAbortedError) as aborted:
        deployment.honest_round(1)
    assert len(lied) == 1
    assert ("blinder", VIOLATION_MASK_OPENING) in {
        (violation.offender, violation.kind) for violation in aborted.value.report.violations
    }


#: Where a seed is expanded, by the innermost of these frames it runs in:
#: the blinder's family draw and commit, a Glimmer's install and blind, and
#: the engine's per-slot dropout reveal.
_EXPANSION_SITES = {
    "sample": "draw",
    "_commit_with": "commit",
    "install_blinding_mask": "install",
    "blind": "blind",
    "_verified_repair_mask": "reveal",
}


def _expansion_site() -> str:
    frame = sys._getframe(2)
    while frame is not None:
        site = _EXPANSION_SITES.get(frame.f_code.co_name)
        if site is not None:
            return site
        frame = frame.f_back
    return "elsewhere"


def test_a_delivered_seed_is_expanded_once_per_use(monkeypatch):
    """One collect dropout in a four-slot flat round: slots 0–2 are seeds,
    slot 0 drops after its install.  Each seed is expanded once at its
    Glimmer's install (the opening check, whose row the reuse digest
    reads), once at blind, and once by the engine's per-slot reveal check,
    whose row the repair sums.  The blinder's open costs three: the
    family's draw and two commit passes."""
    deployment = Deployment.build(num_users=4, seed=b"seed-expansions")
    users = [user.user_id for user in deployment.corpus.users]
    counted = Counter()
    expand = masking.expand_seed

    def counting_expand(seed, length):
        counted[seed, _expansion_site()] += 1
        return expand(seed, length)

    monkeypatch.setattr(masking, "expand_seed", counting_expand)
    report = deployment.engine.run_round(
        1,
        users,
        deployment.local_vectors(),
        deployment.features.bigrams,
        collect_dropouts=(users[0],),
        recovery_threshold=0.25,
    )
    assert report.masks_repaired == 1
    seeds = {seed for seed, _ in counted}
    assert len(seeds) == len(users) - 1
    revealed = {seed for seed, site in counted if site == "reveal"}
    assert len(revealed) == 1
    for seed in seeds:
        uses = {"install": 1, **({"reveal": 1} if seed in revealed else {"blind": 1})}
        assert {site: n for (s, site), n in counted.items() if s == seed} == {
            "draw": 1,
            "commit": 2,
            **uses,
        }


def _reachable_bytes(obj, depth=0) -> list[bytes]:
    """Every ``bytes`` value reachable from ``obj`` through containers and
    object attributes."""
    if depth > 8:
        return []
    if isinstance(obj, bytes):
        return [obj]
    if isinstance(obj, dict):
        items = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
    elif hasattr(obj, "__dict__"):
        items = list(vars(obj).values())
    else:
        return []
    return [found for item in items for found in _reachable_bytes(item, depth + 1)]


def test_a_breached_glimmer_reveals_no_other_slots_row():
    """``peek_private_state`` of one Glimmer yields its own share and no
    other slot's seed or row; expanding anything it holds gives no other
    slot's row either."""
    deployment = Deployment.build(num_users=6, seed=b"seed-breach")
    users = [user.user_id for user in deployment.corpus.users]
    deployment.open_round(1, users)
    blinding = deployment.blinder_provisioner.blinding
    length = len(deployment.features)
    victim = deployment.clients[users[0]]
    slot = victim.party_index_for(1)
    victim.platform.threat_model.memory_disclosure = True
    try:
        held = set(_reachable_bytes(victim.glimmer.peek_private_state()))
    finally:
        victim.platform.threat_model.memory_disclosure = False
    own = blinding.mask_for(1, slot)
    assert (own.seed if own.seed is not None else own.words) in held
    others = [blinding.mask_for(1, other) for other in range(len(users)) if other != slot]
    rows = {share.row() for share in others}
    assert not rows & held
    assert not {share.seed for share in others if share.seed is not None} & held
    assert not set(blinding._round_masks[1].seeds) & held
    assert not {expand_seed(value, length) for value in held if len(value) == 32} & rows


def test_bytes_replied_is_the_reply_frames_an_eavesdropper_saw():
    deployment = Deployment.build(num_users=4)
    deployment.honest_round(1)
    eavesdropper = EavesdropAdversary()
    deployment.network.interpose(eavesdropper)
    deployment.honest_round(2)
    replies = [m for m in eavesdropper.captured if m.kind.endswith(REPLY_SUFFIX)]
    assert replies
    report = deployment.last_report
    assert report.bytes_replied == sum(len(codec.encode(m.payload)) for m in replies)

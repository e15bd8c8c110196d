"""Tests for Bonawitz-style secure aggregation with dropout recovery."""

import pytest

from repro import codec
from repro.crypto.cipher import AuthenticatedCipher
from repro.crypto.dh import TEST_GROUP
from repro.crypto.drbg import HmacDrbg
from repro.crypto.secagg import (
    EncryptedShares,
    PeerShares,
    SecureAggregationClient,
    SecureAggregationServer,
)
from repro.errors import ProtocolError


def build_cohort(n, threshold, seed=b"secagg"):
    server = SecureAggregationServer(group=TEST_GROUP)
    clients = [
        SecureAggregationClient(
            i, HmacDrbg(seed + bytes([i])), group=TEST_GROUP
        )
        for i in range(n)
    ]
    roster = server.register([c.advertise() for c in clients], threshold)
    messages = []
    for client in clients:
        messages.extend(client.share_keys(roster, threshold))
    routed = SecureAggregationServer.route_shares(messages)
    for client in clients:
        client.receive_shares(routed.get(client.client_id, []))
    return server, clients


def run_round(server, clients, xs, dropouts=()):
    codec = server.codec
    for client in clients:
        if client.client_id in dropouts:
            continue
        server.collect_masked_input(
            client.client_id, client.masked_input(codec.encode(xs[client.client_id]))
        )
    survivors, dropped = server.survivor_sets()
    responses = {
        client.client_id: client.unmask_response(survivors, dropped)
        for client in clients
        if client.client_id in survivors
    }
    return server.aggregate(responses)


def test_no_dropout_exact_sum():
    server, clients = build_cohort(4, 3)
    xs = [[1.0, -1.0], [2.0, 0.5], [3.0, 0.25], [-1.5, 1.0]]
    total = run_round(server, clients, xs)
    assert total == pytest.approx([4.5, 0.75])


def test_single_dropout_recovered():
    server, clients = build_cohort(5, 3)
    xs = [[float(i), float(-i)] for i in range(5)]
    total = run_round(server, clients, xs, dropouts={2})
    assert total == pytest.approx([0 + 1 + 3 + 4, -(0 + 1 + 3 + 4)])


def test_multiple_dropouts_recovered():
    server, clients = build_cohort(6, 3)
    xs = [[1.0]] * 6
    total = run_round(server, clients, xs, dropouts={1, 4})
    assert total == pytest.approx([4.0])


def test_too_many_dropouts_fails():
    server, clients = build_cohort(5, 4)
    xs = [[1.0]] * 5
    with pytest.raises(ProtocolError):
        run_round(server, clients, xs, dropouts={0, 1})


def test_masked_input_hides_contribution():
    server, clients = build_cohort(3, 2)
    codec = server.codec
    x = [0.75, -0.25]
    masked = clients[0].masked_input(codec.encode(x))
    assert masked != codec.encode(x)


def test_two_clients_same_input_different_masked_vectors():
    server, clients = build_cohort(3, 2)
    codec = server.codec
    a = clients[0].masked_input(codec.encode([0.5]))
    b = clients[1].masked_input(codec.encode([0.5]))
    assert a != b


def test_duplicate_masked_input_rejected_by_server():
    server, clients = build_cohort(3, 2)
    codec = server.codec
    masked = clients[0].masked_input(codec.encode([1.0]))
    server.collect_masked_input(0, masked)
    with pytest.raises(ProtocolError):
        server.collect_masked_input(0, masked)


def test_client_refuses_double_masked_input():
    server, clients = build_cohort(3, 2)
    codec = server.codec
    clients[0].masked_input(codec.encode([1.0]))
    with pytest.raises(ProtocolError):
        clients[0].masked_input(codec.encode([1.0]))


def test_unknown_client_rejected():
    server, clients = build_cohort(3, 2)
    with pytest.raises(ProtocolError):
        server.collect_masked_input(99, [1, 2])


def test_length_mismatch_rejected():
    server, clients = build_cohort(3, 2)
    codec = server.codec
    server.collect_masked_input(0, clients[0].masked_input(codec.encode([1.0, 2.0])))
    with pytest.raises(ProtocolError):
        server.collect_masked_input(1, clients[1].masked_input(codec.encode([1.0])))


def test_share_keys_twice_rejected():
    server, clients = build_cohort(3, 2)
    roster = [c.advertise() for c in clients]
    with pytest.raises(ProtocolError):
        clients[0].share_keys(roster, 2)


def test_share_routed_to_wrong_client_rejected():
    server = SecureAggregationServer(group=TEST_GROUP)
    clients = [
        SecureAggregationClient(i, HmacDrbg(bytes([i])), group=TEST_GROUP)
        for i in range(3)
    ]
    roster = server.register([c.advertise() for c in clients], 2)
    messages = clients[0].share_keys(roster, 2)
    misrouted = [
        EncryptedShares(sender=m.sender, receiver=m.receiver, box=m.box)
        for m in messages
        if m.receiver != 1
    ]
    with pytest.raises(ProtocolError):
        clients[1].receive_shares(misrouted)


def test_privacy_invariant_never_both_shares():
    """A client refuses to reveal both key-seed and self-mask shares for one peer."""
    server, clients = build_cohort(4, 2)
    codec = server.codec
    for client in clients:
        if client.client_id == 3:
            continue
        server.collect_masked_input(
            client.client_id, client.masked_input(codec.encode([1.0]))
        )
    survivors, dropped = server.survivor_sets()
    clients[0].unmask_response(survivors, dropped)
    # A second, contradictory request claims client 1 (a survivor) dropped.
    with pytest.raises(ProtocolError):
        clients[0].unmask_response({0, 2}, {1, 3})


def test_survivor_and_dropout_sets_disjoint():
    server, clients = build_cohort(3, 2)
    with pytest.raises(ProtocolError):
        clients[0].unmask_response({0, 1}, {1, 2})


def test_non_survivor_cannot_respond():
    server, clients = build_cohort(3, 2)
    with pytest.raises(ProtocolError):
        clients[0].unmask_response({1, 2}, {0})


def test_register_validations():
    server = SecureAggregationServer(group=TEST_GROUP)
    clients = [
        SecureAggregationClient(i, HmacDrbg(bytes([i])), group=TEST_GROUP)
        for i in range(3)
    ]
    bundles = [c.advertise() for c in clients]
    with pytest.raises(ProtocolError):
        server.register(bundles, 1)
    with pytest.raises(ProtocolError):
        server.register(bundles, 4)
    with pytest.raises(ProtocolError):
        server.register(bundles + [bundles[0]], 2)


def test_threshold_validations_client_side():
    client = SecureAggregationClient(0, HmacDrbg(b"x"), group=TEST_GROUP)
    other = SecureAggregationClient(1, HmacDrbg(b"y"), group=TEST_GROUP)
    roster = [client.advertise(), other.advertise()]
    with pytest.raises(ProtocolError):
        client.share_keys(roster, 1)
    with pytest.raises(ProtocolError):
        client.share_keys(roster, 3)
    with pytest.raises(ProtocolError):
        other.share_keys([client.advertise()], 2)  # own id missing


def test_larger_cohort_with_dropouts_exact():
    server, clients = build_cohort(8, 5)
    xs = [[0.125 * i, 1.0 - 0.25 * i, float(i % 3)] for i in range(8)]
    total = run_round(server, clients, xs, dropouts={3, 6})
    expect = [
        sum(xs[i][j] for i in range(8) if i not in (3, 6)) for j in range(3)
    ]
    assert total == pytest.approx(expect)


def test_share_payload_round_trips_320_bit_values():
    """A round-1 payload is a ``PeerShares`` frame, whatever the values:
    boundary values (0, 2^320 - 1, a prime just below 2^255, and a value
    with only high bits set) come back exactly."""
    from repro.crypto.shamir import FIELD_PRIME, ShamirShare

    cases = [
        (ShamirShare(x=1, y=0), ShamirShare(x=2, y=(1 << 320) - 1)),
        (
            ShamirShare(x=FIELD_PRIME - 1, y=FIELD_PRIME - 2),
            ShamirShare(x=(1 << 319), y=(1 << 64) - 1),
        ),
        (ShamirShare(x=0, y=0), ShamirShare(x=0, y=0)),
    ]
    for seed_share, mask_share in cases:
        payload = codec.encode(PeerShares(seed_share, mask_share))
        decoded = codec.decode(payload, PeerShares)
        assert decoded.seed_share == seed_share
        assert decoded.selfmask_share == mask_share


def _deliver(payload: bytes) -> None:
    """Hand client 1 of a three-client cohort ``payload`` as client 0's
    round-1 shares, sealed under their pairwise key."""
    server = SecureAggregationServer(group=TEST_GROUP)
    clients = [
        SecureAggregationClient(i, HmacDrbg(bytes([i])), group=TEST_GROUP) for i in range(3)
    ]
    roster = server.register([c.advertise() for c in clients], 2)
    for client in clients:
        client.share_keys(roster, 2)
    key = clients[0]._pairwise_key(roster[1], "share-transport")
    box = AuthenticatedCipher(key).encrypt(
        b"n" * 16, payload, associated_data=(0).to_bytes(4, "big") + (1).to_bytes(4, "big")
    )
    clients[1].receive_shares([EncryptedShares(sender=0, receiver=1, box=box)])


def test_decode_shares_rejects_malformed_payload():
    from repro.errors import CryptoError

    with pytest.raises(CryptoError):
        _deliver(b"\x00" * 159)
    with pytest.raises(CryptoError):
        _deliver(b"")

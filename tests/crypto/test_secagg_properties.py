"""Property-based tests for secure aggregation: exactness under any dropout.

The invariant the whole E3 story rests on: for *any* cohort, *any* vector
values in range, and *any* dropout subset leaving at least ``threshold``
survivors, the recovered sum equals the survivors' true sum exactly (up to
fixed-point quantization).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.dh import TEST_GROUP
from repro.crypto.drbg import HmacDrbg
from repro.crypto.fixedpoint import FixedPointCodec
from repro.crypto.masking import BlindingService, apply_mask
from repro.crypto.secagg import SecureAggregationClient, SecureAggregationServer


@settings(max_examples=15, deadline=None)
@given(
    num_clients=st.integers(min_value=3, max_value=6),
    length=st.integers(min_value=1, max_value=4),
    dropout_mask=st.lists(st.booleans(), min_size=6, max_size=6),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_bonawitz_exact_under_any_valid_dropout(num_clients, length, dropout_mask, seed):
    codec = FixedPointCodec()
    threshold = 2
    server = SecureAggregationServer(group=TEST_GROUP)
    clients = [
        SecureAggregationClient(
            i, HmacDrbg(seed.to_bytes(4, "big") + bytes([i])), group=TEST_GROUP
        )
        for i in range(num_clients)
    ]
    roster = server.register([c.advertise() for c in clients], threshold)
    messages = []
    for client in clients:
        messages.extend(client.share_keys(roster, threshold))
    routed = SecureAggregationServer.route_shares(messages)
    for client in clients:
        client.receive_shares(routed.get(client.client_id, []))

    dropouts = {i for i in range(num_clients) if dropout_mask[i]}
    # Keep at least `threshold` survivors (otherwise recovery legitimately fails).
    while num_clients - len(dropouts) < threshold:
        dropouts.pop()
    values = {
        i: [((i + 1) * (j + 1)) % 7 / 7.0 for j in range(length)]
        for i in range(num_clients)
    }
    for client in clients:
        if client.client_id in dropouts:
            continue
        server.collect_masked_input(
            client.client_id, client.masked_input(codec.encode(values[client.client_id]))
        )
    survivors, dropped = server.survivor_sets()
    responses = {
        c.client_id: c.unmask_response(survivors, dropped)
        for c in clients
        if c.client_id in survivors
    }
    total = server.aggregate(responses)
    expected = [
        sum(values[i][j] for i in survivors) for j in range(length)
    ]
    assert total == pytest.approx(expected, abs=1e-3)


@settings(max_examples=20, deadline=None)
@given(
    num_parties=st.integers(min_value=2, max_value=8),
    length=st.integers(min_value=1, max_value=6),
    dropouts=st.sets(st.integers(min_value=0, max_value=7), max_size=6),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_sum_zero_scheme_exact_under_any_dropout(num_parties, length, dropouts, seed):
    """The §3 scheme repairs *any* dropout set by disclosing those masks."""
    codec = FixedPointCodec()
    service = BlindingService(HmacDrbg(seed.to_bytes(4, "big")), codec)
    service.open_round(1, num_parties, length)
    dropouts = {d for d in dropouts if d < num_parties}
    survivors = [i for i in range(num_parties) if i not in dropouts]
    if not survivors:
        survivors = [0]
        dropouts.discard(0)
    values = {
        i: [((i + 2) * (j + 3)) % 5 / 5.0 for j in range(length)]
        for i in range(num_parties)
    }
    blinded = [
        apply_mask(codec.encode(values[i]), service.mask_for(1, i).row())
        for i in survivors
    ]
    total = codec.sum_vectors(blinded)
    for dropped in sorted(dropouts):
        total = apply_mask(total, service.mask_for_dropout(1, dropped).row())
    recovered = codec.decode(total)
    expected = [sum(values[i][j] for i in survivors) for j in range(length)]
    assert list(recovered) == pytest.approx(expected, abs=1e-3)

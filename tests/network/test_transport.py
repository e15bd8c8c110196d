"""Tests for the simulated transport, clock, and adversaries."""

from dataclasses import replace

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.errors import ConfigurationError, NetworkError
from repro.network import (
    DropAdversary,
    EavesdropAdversary,
    LatencyModel,
    Message,
    Network,
    NetworkAdversary,
    ReplayAdversary,
    SimulatedClock,
)
from repro.network.clock import LAN_LATENCY, LOCAL_LATENCY, WAN_LATENCY


class TamperAdversary(NetworkAdversary):
    """Flips a bit in byte payloads of the targeted kinds."""

    def __init__(self, target_kinds: set[str] | None = None) -> None:
        self.target_kinds = target_kinds
        self.tampered = 0

    def process(self, message: Message) -> Message | None:
        if self.target_kinds is not None and message.kind not in self.target_kinds:
            return message
        payload = message.payload
        if isinstance(payload, (bytes, bytearray)) and payload:
            mutated = bytearray(payload)
            mutated[len(mutated) // 2] ^= 0x01
            self.tampered += 1
            return message.with_payload(bytes(mutated))
        return message


def make_network(**kwargs):
    network = Network(seed=b"test-net", **kwargs)
    log = []
    network.register(
        "service",
        {
            "echo": lambda m: m.payload,
            "log": lambda m: log.append(m.payload),
        },
    )
    network.register("client", {})
    return network, log


def test_clock_starts_at_zero():
    assert SimulatedClock().now_ms() == 0.0


def test_clock_advance():
    clock = SimulatedClock(10.0)
    assert clock.advance(5.0) == 15.0
    assert clock.now_ms() == 15.0


def test_clock_rejects_negative():
    with pytest.raises(ConfigurationError):
        SimulatedClock().advance(-1.0)


def test_latency_model_sampling():
    rng = HmacDrbg(b"lat")
    model = LatencyModel(base_ms=10.0, per_kb_ms=1.0, jitter_ms=0.0)
    assert model.sample(0, rng) == pytest.approx(10.0)
    assert model.sample(2048, rng) == pytest.approx(12.0)


def test_latency_tiers_ordered():
    rng = HmacDrbg(b"lat")
    assert (
        LOCAL_LATENCY.sample(1024, rng)
        < LAN_LATENCY.sample(1024, rng)
        < WAN_LATENCY.sample(1024, rng)
    )


def test_call_roundtrip_and_clock_advances():
    network, _ = make_network()
    start = network.clock.now_ms()
    assert network.call("client", "service", "echo", b"ping") == b"ping"
    assert network.clock.now_ms() > start


def test_send_one_way():
    network, log = make_network()
    network.send("client", "service", "log", "entry")
    assert log == ["entry"]


def test_unknown_endpoint():
    network, _ = make_network()
    with pytest.raises(NetworkError):
        network.call("client", "nowhere", "echo", b"x")


def test_unknown_kind():
    network, _ = make_network()
    with pytest.raises(NetworkError):
        network.call("client", "service", "unknown-kind", b"x")


def test_duplicate_registration():
    network, _ = make_network()
    with pytest.raises(NetworkError):
        network.register("service", {})


def test_add_handler_after_registration():
    network, _ = make_network()
    network.add_handler("service", "double", lambda m: m.payload * 2)
    assert network.call("client", "service", "double", 21) == 42


def test_add_handler_unknown_endpoint():
    network, _ = make_network()
    with pytest.raises(NetworkError):
        network.add_handler("ghost", "k", lambda m: None)


def test_link_latency_override():
    fast = Network(seed=b"a", latency=LatencyModel(base_ms=100.0, jitter_ms=0.0))
    fast.register("s", {"echo": lambda m: m.payload})
    fast.register("c", {})
    fast.set_link_latency("c", "s", LatencyModel(base_ms=1.0, jitter_ms=0.0))
    fast.call("c", "s", "echo", b"")
    assert fast.clock.now_ms() == pytest.approx(2.0, abs=0.5)


def test_message_counters():
    network, _ = make_network()
    network.call("client", "service", "echo", b"abc")
    assert network.messages_delivered == 1
    assert network.bytes_delivered >= 3


def test_eavesdropper_sees_plaintext_payloads():
    network, _ = make_network()
    spy = EavesdropAdversary()
    network.interpose(spy)
    network.call("client", "service", "echo", b"secret-in-the-clear")
    assert spy.captured_payloads("echo") == [b"secret-in-the-clear"]


def test_drop_adversary_by_kind():
    network, log = make_network()
    network.interpose(DropAdversary(drop_kinds={"log"}))
    assert network.send("client", "service", "log", "x") is None
    assert log == []
    assert network.messages_dropped == 1


def test_drop_adversary_raises_on_call():
    network, _ = make_network()
    network.interpose(DropAdversary(drop_kinds={"echo"}))
    with pytest.raises(NetworkError):
        network.call("client", "service", "echo", b"x")


def test_drop_adversary_probabilistic():
    network, _ = make_network()
    network.interpose(DropAdversary(drop_rate=1.0))
    assert network.send("client", "service", "echo", b"x") is None


def test_tamper_adversary_flips_bytes():
    network, _ = make_network()
    network.interpose(TamperAdversary(target_kinds={"echo"}))
    result = network.call("client", "service", "echo", b"AAAA")
    assert result != b"AAAA"
    assert len(result) == 4


def test_tamper_adversary_ignores_other_kinds():
    network, _ = make_network()
    network.interpose(TamperAdversary(target_kinds={"other"}))
    assert network.call("client", "service", "echo", b"AAAA") == b"AAAA"


def test_replay_adversary():
    received = []
    network = Network(seed=b"replay-net")
    network.register("service", {"submit": lambda m: received.append(m.payload)})
    network.register("client", {})
    replayer = ReplayAdversary(target_kinds={"submit"})
    network.interpose(replayer)
    network.send("client", "service", "submit", b"contribution")
    replayer.replay_into(network)
    assert received == [b"contribution", b"contribution"]


def test_replay_with_nothing_recorded():
    network, _ = make_network()
    with pytest.raises(ValueError):
        ReplayAdversary().replay_into(network)


def test_clear_adversaries():
    network, _ = make_network()
    network.interpose(DropAdversary(drop_rate=1.0))
    network.clear_adversaries()
    assert network.call("client", "service", "echo", b"x") == b"x"


def test_message_helpers():
    message = Message(sender="a", receiver="b", kind="k", payload=b"p")
    assert message.with_payload(b"q").payload == b"q"
    assert message.with_payload(b"q").sender == "a"
    assert replace(message, receiver="c").receiver == "c"


def test_adversary_chain_order():
    network, _ = make_network()
    spy_before = EavesdropAdversary()
    spy_after = EavesdropAdversary()
    network.interpose(spy_before)
    network.interpose(TamperAdversary(target_kinds={"echo"}))
    network.interpose(spy_after)
    network.call("client", "service", "echo", b"AAAA")
    # Both legs of the call traverse the chain: the first spy sees the
    # pristine request plus the (tampered, echoed-back) response; the spy
    # placed after the tamperer never sees the pristine payload.
    assert spy_before.captured_payloads("echo") == [b"AAAA"]
    assert spy_after.captured_payloads("echo") != [b"AAAA"]
    assert len(spy_before.captured_payloads()) == 2


def test_response_leg_visible_to_adversaries():
    network, _ = make_network()
    spy = EavesdropAdversary()
    network.interpose(spy)
    network.call("client", "service", "echo", b"ping")
    kinds = [m.kind for m in spy.captured]
    assert kinds == ["echo", "echo/reply"]


def test_response_leg_can_drop():
    from repro.faults import FaultInjector, FaultPlan, SITE_RESPONSE

    network, log = make_network()
    network.fault_injector = FaultInjector(
        FaultPlan(rates={SITE_RESPONSE: 1.0}), seed=b"drop-responses"
    )
    with pytest.raises(NetworkError, match="response"):
        network.call("client", "service", "log", b"x")
    # The handler DID run — at-least-once delivery, caller just never
    # learned it.
    assert log == [b"x"]
    assert network.messages_dropped == 1


def test_reply_drop_counts_as_drop_not_delivery():
    """At-least-once accounting: a dropped ``<kind>/reply`` is a drop.

    The request leg was delivered (the handler ran), so
    ``messages_delivered`` reflects exactly one request — the lost reply
    must increment ``messages_dropped`` and ``messages_dropped`` only,
    never ``messages_delivered``/``bytes_delivered``/``replies_delivered``.
    """
    network, _ = make_network()
    network.interpose(DropAdversary(drop_kinds={"echo/reply"}))
    with pytest.raises(NetworkError, match="response"):
        network.call("client", "service", "echo", b"ping")
    assert network.messages_delivered == 1  # the request only
    assert network.messages_dropped == 1  # the reply
    assert network.replies_delivered == 0
    request_bytes = network.bytes_delivered
    # An undropped call meters its request bytes and its reply separately.
    network.clear_adversaries()
    network.call("client", "service", "echo", b"ping")
    assert network.messages_delivered == 2
    assert network.messages_dropped == 1
    assert network.replies_delivered == 1
    assert network.bytes_delivered == 2 * request_bytes


def test_retry_after_reply_drop_reaches_handler_with_attempt_gt_1():
    """Handlers must see ``attempt > 1`` on retransmissions.

    A reply-drop retry is the idempotency-critical case: the handler
    already ran, and only the incremented attempt number lets it answer
    from its result cache instead of double-executing.
    """
    network = Network(seed=b"retry-net")
    attempts_seen = []

    def handler(message):
        attempts_seen.append(message.attempt)
        return "ok"

    network.register("service", {"do": handler})
    network.register("client", {})

    class DropFirstReply:
        dropped = 0

        def process(self, message):
            if message.kind == "do/reply" and self.dropped == 0:
                self.dropped += 1
                return None
            return message

    network.interpose(DropFirstReply())
    # The engine's call_with_retry contract, inlined: increment attempt
    # on every retransmission.
    result = None
    for attempt in (1, 2):
        try:
            result = network.call("client", "service", "do", b"x", attempt=attempt)
            break
        except NetworkError:
            continue
    assert result == "ok"
    assert attempts_seen == [1, 2], (
        "the handler ran twice (at-least-once) and the retry must carry "
        "attempt=2 so idempotency caches engage"
    )
    assert network.messages_delivered == 2
    assert network.messages_dropped == 1
    assert network.replies_delivered == 1

"""RPC-style simulated transport with latency accounting.

Endpoints register handlers per message kind; :meth:`Network.call` delivers
a request through the adversary chain, advances the simulated clock by a
sampled one-way latency each direction, and returns the handler's response.
One-way :meth:`Network.send` is available for fire-and-forget flows.

Both legs of a call face the adversary chain: the response travels back as
its own :class:`Message` (kind ``<kind>/reply``, addressing reversed), so
drop models and eavesdroppers apply symmetrically.  A dropped response
raises :class:`NetworkError` *after* the handler ran — callers that retry
get at-least-once semantics and handlers must treat retransmissions
(``Message.attempt > 1``) idempotently.  Responses do not count toward
``messages_delivered``/``bytes_delivered`` (those meter request traffic,
which keeps phase accounting comparable across experiments) but a dropped
response does count as a drop.

The transport itself offers **no** security: anything an adversary should
not read or forge must be sealed to an attested enclave or carry a
Glimmer signature.  That is the point — experiments show the architecture's
guarantees surviving a hostile network, not a polite one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.crypto.drbg import HmacDrbg
from repro.errors import NetworkError
from repro.faults import ACTION_DROP, SITE_REQUEST, SITE_RESPONSE
from repro.network.adversary import NetworkAdversary
from repro.network.clock import LatencyModel, SimulatedClock
from repro.network.message import Message
from repro.sgx.enclave import payload_size


Handler = Callable[[Message], Any]

REPLY_SUFFIX = "/reply"
"""Appended to a request's kind to tag its response message, so kind-based
adversaries and capture filters can tell the two legs apart."""


@dataclass
class Endpoint:
    """A named protocol participant with per-kind handlers."""

    name: str
    handlers: dict[str, Handler]

    def handle(self, message: Message) -> Any:
        handler = self.handlers.get(message.kind)
        if handler is None:
            raise NetworkError(
                f"endpoint {self.name!r} has no handler for kind {message.kind!r}"
            )
        return handler(message)


class Network:
    """The simulated wire connecting all endpoints.

    Parameters
    ----------
    clock:
        Shared simulated clock; advanced by sampled latency per delivery.
    latency:
        Default latency model; :meth:`set_link_latency` overrides per
        (sender, receiver) pair, which is how E10 models device-local vs.
        WAN-remote Glimmer hosts.
    """

    def __init__(
        self,
        clock: SimulatedClock | None = None,
        latency: LatencyModel | None = None,
        seed: bytes = b"network",
        fault_injector=None,
    ) -> None:
        self.fault_injector = fault_injector
        self.clock = clock or SimulatedClock()
        self._default_latency = latency or LatencyModel()
        self._link_latency: dict[tuple[str, str], LatencyModel] = {}
        self._endpoints: dict[str, Endpoint] = {}
        self._adversaries: list[NetworkAdversary] = []
        self._rng = HmacDrbg(seed, personalization="network-latency")
        self._next_message_id = 1
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_delivered = 0
        self.replies_delivered = 0
        """Responses that survived the adversary chain.  Kept separate
        from ``messages_delivered`` on purpose: request-traffic meters
        stay comparable across experiments (the documented contract),
        while the reply leg is still auditable — a dropped reply shows
        up in ``messages_dropped`` and *only* there."""
        self._redeliveries: list[Message] = []
        self._in_flight = 0
        self.redeliveries_delivered = 0
        self.redeliveries_failed = 0

    # ------------------------------------------------------------- topology

    def register(self, name: str, handlers: dict[str, Handler]) -> Endpoint:
        """Attach an endpoint.  Handler keys are message kinds."""
        if name in self._endpoints:
            raise NetworkError(f"endpoint {name!r} already registered")
        endpoint = Endpoint(name=name, handlers=dict(handlers))
        self._endpoints[name] = endpoint
        return endpoint

    def add_handler(self, name: str, kind: str, handler: Handler) -> None:
        endpoint = self._endpoints.get(name)
        if endpoint is None:
            raise NetworkError(f"unknown endpoint {name!r}")
        endpoint.handlers[kind] = handler

    def set_link_latency(self, sender: str, receiver: str, model: LatencyModel) -> None:
        """Override latency for one directed link (and its reverse)."""
        self._link_latency[(sender, receiver)] = model
        self._link_latency[(receiver, sender)] = model

    def interpose(self, adversary: NetworkAdversary) -> None:
        """Add an on-path adversary; they run in interposition order."""
        self._adversaries.append(adversary)

    def clear_adversaries(self) -> None:
        self._adversaries.clear()

    # ------------------------------------------------------------- delivery

    def _latency_for(self, sender: str, receiver: str, size: int) -> float:
        model = self._link_latency.get((sender, receiver), self._default_latency)
        return model.sample(size, self._rng)

    def _through_adversaries(self, message: Message) -> Message | None:
        current: Message | None = message
        for adversary in self._adversaries:
            if current is None:
                return None
            current = adversary.process(current)
        return current

    def deliver_raw(self, message: Message) -> Any:
        """Deliver a message as-is (used by replay attacks); returns the response."""
        endpoint = self._endpoints.get(message.receiver)
        if endpoint is None:
            raise NetworkError(f"unknown endpoint {message.receiver!r}")
        size = payload_size(message.payload)
        self.clock.advance(self._latency_for(message.sender, message.receiver, size))
        self.messages_delivered += 1
        self.bytes_delivered += size
        return endpoint.handle(message)

    def _transmit(
        self, sender: str, receiver: str, kind: str, payload: Any, attempt: int = 1
    ) -> tuple[bool, Any]:
        """Push one message through adversaries and deliver; (delivered, result)."""
        message = Message(
            sender=sender,
            receiver=receiver,
            kind=kind,
            payload=payload,
            message_id=self._next_message_id,
            sent_at_ms=self.clock.now_ms(),
            attempt=attempt,
        )
        self._next_message_id += 1
        processed = self._through_adversaries(message)
        if processed is not None and self.fault_injector is not None:
            if (
                self.fault_injector.fire(
                    SITE_REQUEST, kind=kind, sender=sender, receiver=receiver
                )
                == ACTION_DROP
            ):
                processed = None
        if processed is None:
            self.messages_dropped += 1
            return False, None
        self._in_flight += 1
        try:
            result = self.deliver_raw(processed)
        finally:
            self._in_flight -= 1
        self._drain_redeliveries()
        return True, result

    def enqueue_redelivery(self, message: Message) -> None:
        """Queue a duplicate/stale copy for delivery after the current one.

        Adversaries modeling a duplicating or reordering network (link
        conditions, autonomous replay) call this from ``process``: the
        copy must not land *before* the message being processed, so it is
        queued and drained only once the *outermost* delivery completes —
        a duplicate of a command whose handler is still on the stack
        (handlers make nested calls) must not re-enter that handler
        mid-operation, before its idempotency record exists.  Queued
        copies go through :meth:`deliver_raw` — they skip the adversary
        chain (no duplicate-of-duplicate cascades) and their handler
        responses go nowhere, exactly like a stray datagram's would.
        """
        self._redeliveries.append(message)

    def _drain_redeliveries(self) -> None:
        if self._in_flight:
            return  # a handler is still running; its caller drains
        while self._redeliveries:
            pending = self._redeliveries.pop(0)
            self._in_flight += 1
            try:
                self.deliver_raw(pending)
            except Exception:
                # A duplicate that a handler rejects (protocol violation,
                # unknown endpoint after a re-registration) dies on the
                # floor, as real stray packets do; the violation is
                # already recorded by the handler's own checks.
                self.redeliveries_failed += 1
            else:
                self.redeliveries_delivered += 1
            finally:
                self._in_flight -= 1

    def send(self, sender: str, receiver: str, kind: str, payload: Any) -> Any:
        """One-way delivery through the adversary chain.

        Returns the handler's return value, or ``None`` if an adversary
        dropped the message (fire-and-forget semantics: the sender cannot
        tell the difference).
        """
        __, result = self._transmit(sender, receiver, kind, payload)
        return result

    def call(
        self, sender: str, receiver: str, kind: str, payload: Any, attempt: int = 1
    ) -> Any:
        """Request/response over a hostile wire, both legs exposed.

        Raises :class:`NetworkError` if either leg is dropped.  A dropped
        *request* means the handler never ran, so a retry is free.  A
        dropped *response* means the handler already ran — the caller
        cannot tell which, so retried calls must pass an incremented
        ``attempt`` and handlers must answer retransmissions idempotently.
        The response faces the same adversary chain as the request (as its
        own ``<kind>/reply`` message) but is metered only as latency, not
        as delivered request traffic.
        """
        delivered, result = self._transmit(sender, receiver, kind, payload, attempt)
        if not delivered:
            raise NetworkError(f"request {kind!r} to {receiver!r} was dropped")
        response = Message(
            sender=receiver,
            receiver=sender,
            kind=kind + REPLY_SUFFIX,
            payload=result,
            message_id=self._next_message_id,
            sent_at_ms=self.clock.now_ms(),
            attempt=attempt,
        )
        self._next_message_id += 1
        processed = self._through_adversaries(response)
        if processed is not None and self.fault_injector is not None:
            if (
                self.fault_injector.fire(
                    SITE_RESPONSE, kind=kind, sender=receiver, receiver=sender
                )
                == ACTION_DROP
            ):
                processed = None
        if processed is None:
            self.messages_dropped += 1
            raise NetworkError(
                f"response to {kind!r} from {receiver!r} was dropped "
                "(the handler may have run)"
            )
        self.replies_delivered += 1
        self.clock.advance(
            self._latency_for(receiver, sender, payload_size(processed.payload))
        )
        self._drain_redeliveries()
        return processed.payload

"""Span tracing recorded from the benchmark's side of each layer boundary.

The traced pass wraps a static table of public entry points — one row
per ``(layer, "module:Class.method")`` — with a wrapper that records a
span: target, start, end, the span that caused it, and the operation
(and engine round) it belongs to.  Spans stay in memory and are written
as JSONL when the run ends.  A span's *self time* is its duration minus
the part of it covered by child spans, so the self times of all spans
of a round plus whatever the round spent outside any span add up to the
round's wall time exactly.

Nothing under ``src/`` is edited: wrappers are installed by replacing
class and module attributes from here, before the workload builds its
cast (enclaves capture their entry points at load time), and stay
pass-through until :attr:`Tracer.on` is set.  Forked pool workers
inherit the pass-through state and never record — the pool is measured
from the parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

# ------------------------------------------------------------ target table
#
# (layer, target).  A target naming a module ("repro.perf.kernels:*")
# wraps every public function defined there; a class target with
# ".*ecalls" wraps every method marked as an enclave entry point.

TARGETS: tuple[tuple[str, str], ...] = (
    # sgx
    ("sgx.attestation", "repro.sgx.attestation:AttestationService.verify"),
    ("sgx.attestation", "repro.sgx.attestation:AttestationService.screen"),
    ("sgx.attestation", "repro.sgx.attestation:QuotingEnclave.quote"),
    ("sgx.attestation", "repro.sgx.platform:SgxPlatform.quote_enclave"),
    ("sgx.enclave", "repro.sgx.enclave:Enclave.ecall"),
    ("sgx.enclave", "repro.sgx.enclave:Enclave.create_report"),
    ("sgx.sealing", "repro.sgx.sealing:SealingManager.seal"),
    ("sgx.sealing", "repro.sgx.sealing:SealingManager.unseal"),
    # crypto
    ("crypto.schnorr", "repro.crypto.schnorr:SchnorrPublicKey.verify"),
    ("crypto.schnorr", "repro.crypto.schnorr:SchnorrKeyPair.sign"),
    ("crypto.schnorr", "repro.crypto.schnorr:batch_verify"),
    ("crypto.dh", "repro.crypto.dh:DHKeyPair.generate"),
    ("crypto.dh", "repro.crypto.dh:DHKeyPair.derive_key"),
    ("crypto.dh", "repro.crypto.dh:DHGroup.is_valid_element"),
    ("crypto.group_ops", "repro.crypto.dh:DHGroup.power"),
    ("crypto.group_ops", "repro.crypto.group_ops:FixedBaseTable.power"),
    ("crypto.group_ops", "repro.crypto.group_ops:multi_power"),
    ("crypto.cipher", "repro.crypto.cipher:AuthenticatedCipher.encrypt"),
    ("crypto.cipher", "repro.crypto.cipher:AuthenticatedCipher.decrypt"),
    ("crypto.commitments", "repro.crypto.commitments:commit_masks"),
    ("crypto.commitments", "repro.crypto.commitments:recommit_masks"),
    ("crypto.commitments", "repro.crypto.commitments:verify_opening"),
    ("crypto.commitments", "repro.crypto.commitments:batch_verify_openings"),
    ("crypto.commitments", "repro.crypto.commitments:encode_mask_payload"),
    ("crypto.commitments", "repro.crypto.commitments:decode_mask_payload"),
    ("crypto.commitments", "repro.crypto.commitments:MaskCommitmentSet.validate_structure"),
    ("crypto.commitments", "repro.crypto.commitments:MaskCommitmentSet.verify_sum_zero"),
    ("crypto.masking", "repro.crypto.masking:SumZeroMasks.sample"),
    ("crypto.masking", "repro.crypto.masking:GroupedSumZeroMasks.sample"),
    ("crypto.masking", "repro.crypto.masking:GroupedSumZeroMasks.group_family"),
    ("crypto.masking", "repro.crypto.masking:BlindingService.open_round"),
    ("crypto.masking", "repro.crypto.masking:BlindingService.open_round_grouped"),
    ("crypto.masking", "repro.crypto.masking:BlindingService.mask_for"),
    ("crypto.masking", "repro.crypto.masking:BlindingService.mask_for_dropout"),
    ("crypto.masking", "repro.crypto.masking:apply_mask"),
    ("crypto.masking", "repro.crypto.masking:remove_mask"),
    ("crypto.fixedpoint", "repro.crypto.fixedpoint:FixedPointCodec.encode"),
    ("crypto.fixedpoint", "repro.crypto.fixedpoint:FixedPointCodec.decode"),
    # perf
    ("perf.kernels", "repro.perf.kernels:*"),
    # core
    ("core.provisioning", "repro.core.provisioning:BlinderProvisioner.open_round"),
    ("core.provisioning", "repro.core.provisioning:BlinderProvisioner.provision_mask"),
    ("core.provisioning", "repro.core.provisioning:BlinderProvisioner.reveal_dropout_mask"),
    ("core.provisioning", "repro.core.provisioning:ServiceProvisioner.provision_signing_key"),
    ("core.glimmer", "repro.core.glimmer:GlimmerProgram.*ecalls"),
    ("core.client", "repro.core.client:ClientDevice.handshake_request"),
    ("core.client", "repro.core.client:ClientDevice.install_mask"),
    ("core.client", "repro.core.client:ClientDevice.contribute"),
    ("core.client", "repro.core.client:ClientDevice.checkpoint_round"),
    ("core.client", "repro.core.client:ClientDevice.close_round"),
    ("core.service", "repro.core.service:CloudService.open_round"),
    ("core.service", "repro.core.service:CloudService.submit"),
    ("core.service", "repro.core.service:CloudService.submit_verified"),
    ("core.service", "repro.core.service:CloudService.finalize_blinded_round"),
    # network / runtime
    ("network.transport", "repro.network.transport:Network.call"),
    ("network.transport", "repro.network.transport:Network.send"),
    # Endpoint.handle's self time is the registered handler's body.
    ("runtime.endpoints", "repro.network.transport:Endpoint.handle"),
    ("runtime.wire", "repro.runtime.wire:validate_payload"),
    ("runtime.wire", "repro.runtime.wire:validate_contribution"),
    ("runtime.engine", "repro.runtime.engine:RoundEngine.round_stages"),
    ("runtime.engine", "repro.runtime.engine:RoundEngine.finalize_round"),
    # scale
    ("scale.rounds", "repro.scale.rounds:run_parallel_round"),
    ("scale.rounds", "repro.scale.rounds:parallel_eligible"),
    ("scale.pool", "repro.scale.pool:WorkerPool.map_chunks"),
    ("scale.shard", "repro.scale.shard:ShardedRingReducer.__call__"),
    ("scale.shard", "repro.scale.shard:plan_shards"),
    ("scale.hierarchy", "repro.scale.hierarchy:hierarchical_eligible"),
    ("scale.subgroup", "repro.scale.subgroup:plan_subgroups"),
    ("scale.streaming", "repro.scale.streaming:StreamingSubgroupAccumulator.fold"),
    ("scale.streaming", "repro.scale.streaming:StreamingSubgroupAccumulator.fold_repair"),
    ("scale.streaming", "repro.scale.streaming:StreamingSubgroupAccumulator.total"),
    # service
    ("service.service", "repro.service.service:GlimmerService.submit_honest"),
    ("service.async_engine", "repro.service.service:GlimmerService.run_pending_sync"),
    ("service.queue", "repro.service.queue:SubmissionQueue.submit"),
    ("service.queue", "repro.service.queue:SubmissionQueue.take"),
    ("service.queue", "repro.service.queue:SubmissionQueue.mark_assigned"),
    ("service.queue", "repro.service.queue:SubmissionQueue.mark_applied"),
    ("service.queue", "repro.service.queue:SubmissionQueue.state_of"),
    ("service.journal", "repro.service.journal:RoundJournal.round_opened"),
    ("service.journal", "repro.service.journal:RoundJournal.round_finalized"),
    ("service.journal", "repro.service.journal:RoundJournal.entries"),
    ("service.audit", "repro.service.audit:AuditLog.record"),
    ("service.resilience", "repro.service.resilience:ResilientStorageBackend.put"),
    ("service.resilience", "repro.service.resilience:ResilientStorageBackend.get"),
    ("service.resilience", "repro.service.resilience:ResilientStorageBackend.keys"),
    ("service.resilience", "repro.service.resilience:ResilientStorageBackend.delete"),
    ("service.resilience", "repro.service.resilience:ResilientStorageBackend.append"),
    ("service.resilience", "repro.service.resilience:ResilientStorageBackend.read_log"),
) + tuple(
    ("service.storage", f"repro.service.storage:{backend}.{op}")
    for backend in ("DiskBackend", "SQLiteBackend")
    for op in ("put", "get", "keys", "delete", "append", "read_log")
) + (
    # The device flushes the disk backend asks for (SQLite's own happen
    # in C and stay inside its spans).  Executed as always; the span
    # gives their count and how much of the store's time they are.
    ("service.storage", "os:fsync"),
)


# ------------------------------------------------------------------ probes
#
# A probe runs after a traced call returns, outside the span, and reads
# only the call's arguments and result.


def _cipher_encrypt(tracer, args, result):
    tracer.counters["cipher_bytes"] += len(args[2])


def _cipher_decrypt(tracer, args, result):
    tracer.counters["cipher_bytes"] += len(result)


def _batch_items(tracer, args, result):
    tracer.counters["batched_items"] += len(args[1])


def _pool_dispatch(tracer, args, result):
    # Kept by reference; pickled for its size only after the run.
    tracer.last_pool_dispatch = (args[1], [list(chunk) for chunk in args[2]])


PROBES = {
    "repro.crypto.cipher:AuthenticatedCipher.encrypt": _cipher_encrypt,
    "repro.crypto.cipher:AuthenticatedCipher.decrypt": _cipher_decrypt,
    "repro.crypto.schnorr:batch_verify": _batch_items,
    "repro.crypto.commitments:batch_verify_openings": _batch_items,
    "repro.scale.pool:WorkerPool.map_chunks": _pool_dispatch,
}


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.on = False
        self.op: int | None = None
        self.round_id: int | None = None
        self.targets: list[tuple[str, str]] = []
        # One tuple per finished span:
        # (target index, start ns, end ns, parent span index, child ns,
        #  op, round id, phase label or None)
        self.spans: list[tuple | None] = []
        self._stack: list[list[int]] = []
        self.counters: Counter = Counter()
        self.last_pool_dispatch = None
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _target_id(self, layer: str, target: str) -> int:
        self.targets.append((layer, target))
        return len(self.targets) - 1

    def _enter(self) -> tuple[int, list[int], int]:
        index = len(self.spans)
        self.spans.append(None)
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        frame = [index, 0]
        stack.append(frame)
        return index, frame, parent

    def _exit(self, tid, index, frame, parent, start, end, label=None) -> None:
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][1] += end - start
        self.spans[index] = (
            tid, start, end, parent, frame[1], self.op, self.round_id, label
        )

    def _wrap_function(self, tid: int, fn, probe):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            index, frame, parent = tracer._enter()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(tid, index, frame, parent, start, clock())
            if probe is not None:
                probe(tracer, args, result)
            return result

        return traced

    def _wrap_stages(self, tid: int, fn):
        """``RoundEngine.round_stages``: one span per generator step.

        A step does the work of the phase the *previous* step yielded
        (the first step is the open phase), so stamping label changes
        from outside yields the per-phase wall without touching the
        engine.  A generator that finishes without ever yielding ran the
        whole round in one step (the worker-pool route) and is labelled
        ``whole``.
        """
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(engine, round_id, *args, **kwargs):
            stages = fn(engine, round_id, *args, **kwargs)
            if not tracer.on:
                return (yield from stages)
            label = "open"
            yielded = False
            while True:
                outer_round = tracer.round_id
                tracer.round_id = round_id
                index, frame, parent = tracer._enter()
                step = label
                start = clock()
                try:
                    nxt = next(stages)
                except StopIteration as stop:
                    if not yielded:
                        step = "whole"
                    return stop.value
                finally:
                    tracer._exit(tid, index, frame, parent, start, clock(), step)
                    tracer.round_id = outer_round
                yielded = True
                label = nxt
                yield nxt

        return traced

    # ----------------------------------------------------------- installing

    def install(self) -> None:
        """Wrap every row of :data:`TARGETS` (pass-through until ``on``)."""
        for layer, target in TARGETS:
            module_name, _, path = target.partition(":")
            module = importlib.import_module(module_name)
            if path == "*":
                for name, fn in vars(module).items():
                    if (
                        inspect.isfunction(fn)
                        and not name.startswith("_")
                        and fn.__module__ == module_name
                    ):
                        self._install_function(layer, module, name)
                continue
            owner_name, _, attr = path.partition(".")
            if not attr:
                self._install_function(layer, module, owner_name)
            elif attr == "*ecalls":
                owner = getattr(module, owner_name)
                for name, fn in list(vars(owner).items()):
                    if getattr(fn, "__sgx_ecall__", False):
                        self._install_method(layer, module_name, owner, name)
            else:
                self._install_method(
                    layer, module_name, getattr(module, owner_name), attr
                )

    def _set(self, owner, name: str, value) -> None:
        self._installed.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _install_method(self, layer, module_name, owner, name: str) -> None:
        raw = vars(owner)[name]
        target = f"{module_name}:{owner.__name__}.{name}"
        tid = self._target_id(layer, target)
        probe = PROBES.get(target)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap_function(tid, raw.__func__, probe))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap_function(tid, raw.__func__, probe))
        elif name == "round_stages":
            wrapped = self._wrap_stages(tid, raw)
        else:
            wrapped = self._wrap_function(tid, raw, probe)
        self._set(owner, name, wrapped)

    def _install_function(self, layer, module, name: str) -> None:
        raw = vars(module)[name]
        target = f"{module.__name__}:{name}"
        wrapped = self._wrap_function(
            self._target_id(layer, target), raw, PROBES.get(target)
        )
        # ``from x import f`` copies the reference; replace every copy.
        for other in list(sys.modules.values()):
            if other is not module and not getattr(other, "__name__", "").startswith("repro"):
                continue
            for alias, value in list(vars(other).items()):
                if value is raw:
                    self._set(other, alias, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    # ------------------------------------------------------------ reporting

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per target: ``calls``, ``self_ms``, ``total_ms`` over all spans."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            tid, start, end, _parent, child, _op, _round, label = span
            layer, target = self.targets[tid]
            key = f"{target}#{label}" if label else target
            row = out.setdefault(
                key, {"layer": layer, "calls": 0, "self_ms": 0.0, "total_ms": 0.0}
            )
            row["calls"] += 1
            row["self_ms"] += (end - start - child) / 1e6
            row["total_ms"] += (end - start) / 1e6
        return out

    def write_jsonl(self, path: str) -> None:
        """One span per line, in start order; see the README for the keys."""
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                tid, start, end, parent, child, op, round_id, label = span
                layer, target = self.targets[tid]
                record = {
                    "span": index,
                    "parent": None if parent < 0 else parent,
                    "op": op,
                    "round_id": round_id,
                    "layer": layer,
                    "name": f"{target}#{label}" if label else target,
                    "start_ns": start,
                    "end_ns": end,
                    "self_ns": end - start - child,
                }
                handle.write(json.dumps(record) + "\n")

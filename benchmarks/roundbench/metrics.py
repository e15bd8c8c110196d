"""Metric definitions: names, units, directions, bounds, and formulas.

End-to-end metrics are what a user of the system sees and come from the
untraced pass only.  Per-layer metrics come from the traced pass and are
views over the span aggregates of :mod:`benchmarks.roundbench.trace`
plus exact counts carried by ``RoundReport``.  ``/client`` divides by
the contributions aggregated in the traced operations.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# ``BENCHMARK.json`` is the definition of the workload names, of every
# per-layer metric, and of what the benchmark driver gates on.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
SERVICE_WORKLOADS = tuple(name for name in WORKLOADS if name.startswith("svc_"))

#: What the driver gates on, with *its* bounds: the end-to-end metrics
#: that are defined and non-zero on every workload and that repeat on
#: this box within the bound the driver's contract allows.  Wall-clock
#: timings do not (see the README), so ``compare`` is where they are
#: judged, against the bounds below and the spread of the runs.
DRIVER_END_TO_END = tuple(m["name"] for m in SPEC["end_to_end"])


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    """Share of the base's median by which the metric may worsen."""
    workloads: tuple[str, ...] = WORKLOADS
    absolute: bool = False
    """The bound is an absolute difference (for a metric expected at 0)."""
    exact: bool = False
    """A count that repeats exactly at equal seeds, compared run by run."""


#: The regression bounds ``compare`` applies (ISSUE 11's).
END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.15),
    EndToEnd("round_ms_per_client_p50", "ms", "lower", 0.10),
    EndToEnd("clients_per_s", "1/s", "higher", 0.10),
    EndToEnd("cpu_ms_per_client", "ms", "lower", 0.10),
    EndToEnd("peak_rss_mib", "MiB", "lower", 0.05),
    EndToEnd("rss_growth_kib_per_round", "KiB", "lower", 0.05),
    EndToEnd("wire_bytes_per_client", "bytes", "lower", 0.0, exact=True),
    EndToEnd("submit_ms_p50", "ms", "lower", 0.10, SERVICE_WORKLOADS),
    EndToEnd("submit_ms_p95", "ms", "lower", 0.15, SERVICE_WORKLOADS),
    EndToEnd("recover_s", "s", "lower", 0.15, SERVICE_WORKLOADS),
    EndToEnd("failed_ops_ratio", "ratio", "lower", 0.0, absolute=True),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str


PER_LAYER = tuple(PerLayer(**m) for m in SPEC["per_layer"])


class SpanTable:
    """Lookups over ``Tracer.aggregate()`` by entry-point name or layer."""

    def __init__(self, aggregate: dict[str, dict]) -> None:
        self._rows = aggregate

    def _named(self, *names: str):
        wanted = set(names)
        for key, row in self._rows.items():
            if key.split(":", 1)[1] in wanted:
                yield row

    def calls(self, *names: str) -> int:
        return sum(row["calls"] for row in self._named(*names))

    def self_ms(self, *names: str) -> float:
        return sum(row["self_ms"] for row in self._named(*names))

    def total_ms(self, *names: str) -> float:
        return sum(row["total_ms"] for row in self._named(*names))

    def layer_self_ms(self, layer: str) -> float:
        return sum(
            row["self_ms"] for row in self._rows.values() if row["layer"] == layer
        )

    def layer_calls(self, layer: str) -> int:
        return sum(
            row["calls"] for row in self._rows.values() if row["layer"] == layer
        )

    def layers(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for row in self._rows.values():
            out[row["layer"]] = out.get(row["layer"], 0.0) + row["self_ms"]
        return out


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_values(
    spans: SpanTable,
    *,
    counters,
    reports,
    contributions: int,
    dropouts: int,
    submits: int,
    ops_wall_ms: float,
    extras: dict[str, float],
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced pass.

    ``reports`` are the traced operations' ``RoundReport``s (exact
    counts), ``extras`` the values measured outside the spans (worker
    RSS, pickled task size, state-directory growth, storage retries,
    trace overhead).
    """
    c = contributions
    rounds = len(reports)
    stage = "RoundEngine.round_stages#"
    singles = spans.calls("SchnorrPublicKey.verify", "verify_opening")
    batched = counters.get("batched_items", 0)
    audit_calls = spans.calls("AuditLog.record")
    all_self = sum(spans.layers().values())
    values = {
        "sgx.attestation.verify_self_ms_per_client": _div(
            spans.self_ms("AttestationService.verify", "AttestationService.screen"), c
        ),
        "sgx.attestation.verifies_per_client": _div(
            spans.calls("AttestationService.verify"), c
        ),
        "crypto.schnorr.verify_self_ms_per_client": _div(
            spans.self_ms("SchnorrPublicKey.verify", "batch_verify"), c
        ),
        "crypto.schnorr.sign_self_ms_per_client": _div(
            spans.self_ms("SchnorrKeyPair.sign"), c
        ),
        "crypto.dh.self_ms_per_client": _div(spans.layer_self_ms("crypto.dh"), c),
        "crypto.group_ops.powers_per_client": _div(spans.calls("DHGroup.power"), c),
        "crypto.group_ops.power_self_ms_per_client": _div(
            spans.layer_self_ms("crypto.group_ops"), c
        ),
        "crypto.group_ops.fixed_base_hit_ratio": _div(
            spans.calls("FixedBaseTable.power"), spans.calls("DHGroup.power")
        ),
        "crypto.group_ops.batched_verify_ratio": _div(batched, batched + singles),
        "core.provisioning.provision_mask_ms_per_client": _div(
            spans.total_ms("BlinderProvisioner.provision_mask"), c
        ),
        "crypto.cipher.self_ms_per_client": _div(
            spans.layer_self_ms("crypto.cipher"), c
        ),
        "crypto.cipher.bytes_per_client": _div(counters.get("cipher_bytes", 0), c),
        "crypto.commitments.self_ms_per_client": _div(
            spans.layer_self_ms("crypto.commitments"), c
        ),
        "crypto.masking.self_ms_per_client": _div(
            spans.layer_self_ms("crypto.masking"), c
        ),
        "crypto.masking.sample_ms_per_round": _div(
            spans.total_ms(
                "BlindingService.open_round", "BlindingService.open_round_grouped"
            ),
            rounds,
        ),
        "crypto.masking.repair_ms_per_dropout": _div(
            spans.total_ms("BlindingService.mask_for_dropout"), dropouts
        ),
        "crypto.fixedpoint.self_ms_per_client": _div(
            spans.layer_self_ms("crypto.fixedpoint"), c
        ),
        "perf.kernels.self_ms_per_client": _div(spans.layer_self_ms("perf.kernels"), c),
        "runtime.wire.validate_self_ms_per_client": _div(
            spans.layer_self_ms("runtime.wire"), c
        ),
        "sgx.enclave.ecalls_per_client": _div(sum(r.ecalls for r in reports), c),
        "sgx.enclave.transition_cycles_per_client": _div(
            sum(r.enclave_transition_cycles for r in reports), c
        ),
        "sgx.enclave.ecall_self_ms_per_client": _div(
            spans.layer_self_ms("sgx.enclave"), c
        ),
        "sgx.sealing.self_ms_per_client": _div(spans.layer_self_ms("sgx.sealing"), c),
        "core.glimmer.self_ms_per_client": _div(spans.layer_self_ms("core.glimmer"), c),
        "core.client.contribute_ms_per_client": _div(
            spans.total_ms("ClientDevice.contribute"), c
        ),
        "core.service.submit_self_ms_per_client": _div(
            spans.self_ms("CloudService.submit", "CloudService.submit_verified"), c
        ),
        "core.service.finalize_ms_per_round": _div(
            spans.total_ms("CloudService.finalize_blinded_round"), rounds
        ),
        "runtime.engine.phase_open_ms": _div(spans.total_ms(stage + "open"), rounds),
        "runtime.engine.phase_provision_ms_per_client": _div(
            spans.total_ms(stage + "provision"), c
        ),
        "runtime.engine.phase_collect_ms_per_client": _div(
            spans.total_ms(stage + "collect"), c
        ),
        "runtime.engine.phase_finalize_ms": _div(
            spans.total_ms(stage + "finalize"), rounds
        ),
        "runtime.engine.retries": float(sum(r.retries for r in reports)),
        "runtime.engine.self_ms_per_client": _div(
            spans.layer_self_ms("runtime.engine"), c
        ),
        "runtime.engine.unattributed_ms_per_client": _div(ops_wall_ms - all_self, c),
        "runtime.endpoints.handler_self_ms_per_client": _div(
            spans.layer_self_ms("runtime.endpoints"), c
        ),
        "network.transport.self_ms_per_client": _div(
            spans.layer_self_ms("network.transport"), c
        ),
        "network.transport.messages_per_client": _div(
            sum(r.messages_sent for r in reports), c
        ),
        "scale.pool.map_wait_ms_per_client": _div(
            spans.total_ms("WorkerPool.map_chunks"), c
        ),
        "scale.rounds.merge_self_ms_per_client": _div(
            spans.layer_self_ms("scale.rounds"), c
        ),
        "scale.streaming.fold_self_ms_per_client": _div(
            spans.layer_self_ms("scale.streaming"), c
        ),
        "scale.subgroup.plan_ms_per_round": _div(
            spans.total_ms("plan_subgroups"), rounds
        ),
        "scale.subgroup.repairs_per_round": _div(
            sum(r.subgroup_dropout_repairs for r in reports), rounds
        ),
        "service.service.self_ms_per_client": _div(
            spans.layer_self_ms("service.service"), c
        ),
        "service.queue.submit_self_ms": _div(
            spans.self_ms("SubmissionQueue.submit"), submits
        ),
        "service.queue.take_ms_per_round": _div(
            spans.total_ms("SubmissionQueue.take"), rounds
        ),
        "service.queue.mark_ms_per_round": _div(
            spans.total_ms(
                "SubmissionQueue.mark_assigned", "SubmissionQueue.mark_applied"
            ),
            rounds,
        ),
        "service.audit.record_self_ms": _div(
            spans.self_ms("AuditLog.record"), audit_calls
        ),
        "service.audit.records_per_client": _div(audit_calls, c),
        "service.journal.self_ms_per_round": _div(
            spans.layer_self_ms("service.journal"), rounds
        ),
        "service.storage.ops_per_client": _div(
            spans.layer_calls("service.storage") - spans.calls("fsync"), c
        ),
        "service.storage.fsyncs_per_client": _div(spans.calls("fsync"), c),
        "service.storage.fsync_ms_per_client": _div(spans.total_ms("fsync"), c),
        "service.storage.self_ms_per_client": _div(
            spans.layer_self_ms("service.storage"), c
        ),
        "service.resilience.self_ms_per_client": _div(
            spans.layer_self_ms("service.resilience"), c
        ),
        "service.async_engine.drive_ms_per_client": _div(
            spans.self_ms("GlimmerService.run_pending_sync"), c
        ),
    }
    values.update(extras)
    missing = {m.name for m in PER_LAYER} - set(values)
    if missing:
        raise KeyError(f"per-layer metrics without a value: {sorted(missing)}")
    return {m.name: float(values[m.name]) for m in PER_LAYER}

"""Run one workload in this process and turn what happened into metrics.

The untraced pass gives the end-to-end metrics.  The traced pass first
measures a few reference operations with the wrappers installed but
pass-through, then records spans for as many more; the ratio of the two
round times is the tracing overhead, and the per-layer metrics come
from the spans.  Correctness and route checks run after every operation
in both passes, outside the timed region.

Times are plain ``perf_counter`` / CPU-clock readings.  Run-to-run noise
is handled by repeating runs and by ``compare``'s spread and
``unresolved`` verdict, not by correcting the readings.
"""

from __future__ import annotations

import gc
import os
import pickle

from . import measure, metrics, workloads
from .trace import Tracer

MIB = 1024.0


def _failed_and_attempted(ops, failures) -> tuple[int, int]:
    """``failed_ops_ratio``'s numerator and denominator.

    Attempted: every round, every submission, every contribution that
    should have been aggregated.  Failed: aborted rounds, refused
    submissions, contributions missing from an aggregate, and failed
    correctness or route checks.
    """
    attempted = failed = 0
    for op in ops:
        attempted += op.rounds + len(op.submit_s) + op.expected
        failed += op.aborted + op.refused + max(0, op.expected - op.contributions)
    return failed + len(failures), attempted


def _run_ops(workload, count, first_index, tracer=None):
    """The closed loop: run, then (untimed) check, collect and sample RSS."""
    ops, failures, rss = [], [], []
    for index in range(first_index, first_index + count):
        if tracer is not None:
            tracer.op = index
            tracer.on = True
        cpu = measure.cpu_s()
        try:
            op = workload.run_op(index)
        finally:
            if tracer is not None:
                tracer.on = False
        op.cpu_s = measure.cpu_s() - cpu
        ops.append(op)
        failures += workload.check(op)
        gc.collect()
        rss.append(measure.status_kib("VmRSS"))
    return ops, failures, rss


def _round_ms_per_client(ops) -> list[float]:
    return [1000.0 * op.round_wall_s / op.participants for op in ops]


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    workdir: str,
) -> dict:
    """One whole run of one workload; returns the result record."""
    os.makedirs(workdir, exist_ok=True)
    count = workloads.planned_ops(name, seconds, smoke)
    tracer = None
    if trace:
        # Before the cast is built: enclaves capture their entry points
        # at load time.
        tracer = Tracer()
        tracer.install()
    workload = workloads.make(name, seed, smoke, workdir)
    try:
        workload.setup()
        setup_s = measure.process_age_s()
        tables = workloads.table_count()
        if trace:
            result = _traced_pass(workload, tracer, count, workdir, seed)
        else:
            result = _untraced_pass(workload, count)
        if workloads.table_count() != tables:
            result["failures"].append(
                "warm-up ended early: a fixed-base table was built in the measured phase"
            )
            result["failed"] += 1
    finally:
        workload.close()
        if tracer is not None:
            tracer.uninstall()
    if not trace:
        result["end_to_end"]["setup_s"] = setup_s
        # After close(), so a pool worker's exit is behind us.
        result["end_to_end"]["peak_rss_mib"] = measure.status_kib("VmHWM") / MIB
    result.update(
        workload=name,
        seed=seed,
        seconds=seconds,
        smoke=smoke,
        trace=trace,
        warmup_s=workload.warmup_s,
    )
    result["correct"] = result["failed"] == 0
    return result


def _end_to_end(ops, rss, extra, failed, attempted) -> dict:
    contributions = sum(op.contributions for op in ops)
    participants = sum(op.participants for op in ops if op.reports)
    submits = [[1000.0 * s for s in op.submit_s] for op in ops if op.submit_s]
    wire = sum(report.bytes_on_wire for op in ops for report in op.reports)
    values = {
        "round_ms_per_client_p50": measure.median(_round_ms_per_client(ops)),
        "clients_per_s": contributions / sum(op.wall_s for op in ops),
        "cpu_ms_per_client": 1000.0 * sum(op.cpu_s for op in ops) / max(1, contributions),
        "rss_growth_kib_per_round": measure.slope(rss),
        "wire_bytes_per_client": wire / max(1, participants),
        "failed_ops_ratio": failed / attempted,
    }
    if submits:
        # Latency grows with history on the disk backend; the pooled median
        # would sit on the step between two iterations and flip between them.
        values["submit_ms_p50"] = measure.median([measure.median(each) for each in submits])
        values["submit_ms_p95"] = measure.percentile(
            [s for each in submits for s in each], 0.95
        )
    values.update(extra)
    return values


def _untraced_pass(workload, count: int) -> dict:
    ops, failures, rss = _run_ops(workload, count, 0)
    extra, finish_failures = workload.finish()
    failures += finish_failures
    failed, attempted = _failed_and_attempted(ops, failures)
    return {
        "end_to_end": _end_to_end(ops, rss, extra, failed, attempted),
        "samples": {
            "rounds": len(ops),
            "submits": sum(len(op.submit_s) for op in ops),
        },
        "ops": {
            "round_wall_s": [op.round_wall_s for op in ops],
            "wall_s": [op.wall_s for op in ops],
            "cpu_s": [op.cpu_s for op in ops],
        },
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }


def _pickled_task_bytes(dispatch) -> int:
    """Bytes the last traced round shipped to the pool, as it pickles them."""
    if dispatch is None:
        return 0
    context, chunks = dispatch
    return sum(
        len(pickle.dumps((context, chunk), protocol=pickle.HIGHEST_PROTOCOL))
        for chunk in chunks
    )


def _traced_pass(workload, tracer, count, workdir, seed) -> dict:
    each = max(2, count // 3)
    reference, failures, _rss = _run_ops(workload, each, 0)
    state_before = workload.state_bytes()
    retries_before = workload.storage_retries()
    traced, traced_failures, _rss = _run_ops(workload, each, each, tracer)
    failures += traced_failures
    state_after = workload.state_bytes()
    retries = workload.storage_retries() - retries_before
    worker_peak_kib = measure.children_peak_rss_kib()
    _extra, finish_failures = workload.finish()
    failures += finish_failures
    failed, attempted = _failed_and_attempted(reference + traced, failures)

    reports = [report for op in traced for report in op.reports]
    contributions = sum(op.contributions for op in traced)
    tasks = 1
    if tracer.last_pool_dispatch is not None:
        tasks = sum(len(chunk) for chunk in tracer.last_pool_dispatch[1])
    overhead = measure.median(_round_ms_per_client(traced)) / measure.median(
        _round_ms_per_client(reference)
    )
    spans = metrics.SpanTable(tracer.aggregate())
    ops_wall_ms = 1000.0 * sum(op.wall_s for op in traced)
    values = metrics.per_layer_values(
        spans,
        counters=tracer.counters,
        reports=reports,
        contributions=contributions,
        dropouts=sum(len(op.dropouts) for op in traced),
        submits=sum(len(op.submit_s) for op in traced),
        ops_wall_ms=ops_wall_ms,
        extras={
            "scale.pool.task_bytes_per_client": _pickled_task_bytes(
                tracer.last_pool_dispatch
            ) / tasks,
            "scale.pool.worker_peak_rss_mib": worker_peak_kib / MIB,
            "service.storage.state_bytes_per_client": (state_after - state_before)
            / max(1, contributions),
            "service.resilience.retries": float(retries),
            "roundbench.trace_overhead_ratio": overhead,
        },
    )
    layers = {
        layer: self_ms / max(1, contributions)
        for layer, self_ms in sorted(spans.layers().items())
    }
    trace_path = os.path.join(workdir, f"trace-{workload.name}-{seed}.jsonl")
    tracer.write_jsonl(trace_path)
    return {
        "per_layer": values,
        # Layer self times + unattributed == traced wall, per client.
        "accounting": {
            "layer_self_ms_per_client": layers,
            "unattributed_ms_per_client": values[
                "runtime.engine.unattributed_ms_per_client"
            ],
            "wall_ms_per_client": ops_wall_ms / max(1, contributions),
        },
        "samples": {"reference_rounds": len(reference), "traced_rounds": len(traced)},
        "spans": len(tracer.spans),
        "trace_file": trace_path,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }

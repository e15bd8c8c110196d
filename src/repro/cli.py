"""Command-line interface: run experiments and inspect the deployment.

Usage (also available as ``python -m repro``)::

    python -m repro list                     # experiment index
    python -m repro run e4                   # run one experiment, print its table
    python -m repro run all                  # run every registered experiment
    python -m repro run e4 --json            # machine-readable table output
    python -m repro demo                     # the quickstart narrative

Experiment parameter overrides are passed as ``key=value`` pairs and parsed
with :func:`ast.literal_eval`, e.g.::

    python -m repro run e4 num_users=12 "magnitudes=(538.0,)"

Round-level performance is measured by ``benchmarks/roundbench`` (see its
README), not by this CLI; ``stream-smoke`` is the one memory-budget check
that lives here::

    python -m repro stream-smoke --users 100000 --max-rss-kb 262144

The long-lived service runs under ``serve``/``submit``::

    python -m repro submit --state-dir ./state --tenant a --user user-0000
    python -m repro serve --state-dir ./state --tenants a,b --rounds 2
    python -m repro serve --state-dir ./state --tenants a,b --resume

``submit`` enqueues into the durable submission queue (admission control
applies: a full queue exits 3); ``serve`` drains queued submissions
through overlapping rounds, one per tenant at a time, and ``--resume``
first finishes any round a previous process left open in the journal.
Both commands default to the ``disk`` backend so separate invocations
share state through ``--state-dir``.

Robustness tooling::

    python -m repro serve --state-dir ./state --chaos-seed demo-1
    python -m repro audit-verify --state-dir ./state
    python -m repro audit-verify --state-dir ./state --repair

``serve --chaos-seed`` drains the queue under a deterministic storage
fault plan with hard kill-points, restarting the service from persisted
state after every incident — a command-line miniature of the chaos
suite's exact-or-recovered harness.  ``audit-verify`` exits 1 on any
tamper/truncation of the hash-chained audit log and, with ``--repair``,
quarantines the broken history and re-anchors the chain.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys

from repro.experiments.registry import EXPERIMENTS, run_experiment


def _parse_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"override {pair!r} is not key=value")
        key, raw = pair.split("=", 1)
        try:
            overrides[key] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            overrides[key] = raw  # plain string value
    return overrides


def _cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(eid) for eid in EXPERIMENTS)
    for experiment_id, (title, module) in EXPERIMENTS.items():
        print(f"{experiment_id.ljust(width)}  {title}  [{module}]")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    targets = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    overrides = _parse_overrides(args.overrides)
    if args.seed:
        # An explicit seed=... override still beats the flag.
        overrides.setdefault("seed", args.seed.encode("utf-8"))
    status = 0
    for experiment_id in targets:
        if experiment_id not in EXPERIMENTS:
            print(f"unknown experiment {experiment_id!r}; try 'list'", file=sys.stderr)
            return 2
        try:
            result = run_experiment(experiment_id, **overrides)
            table = result.table()
            rendered = table.to_json(indent=2) if args.json else table.render()
        except Exception as exc:
            # Rendering failures count too: a consumer of --json output must
            # never see exit 0 alongside a missing or truncated table.
            if args.json:
                print(json.dumps({"experiment": experiment_id, "error": str(exc)}))
            print(f"{experiment_id} failed: {exc}", file=sys.stderr)
            status = 1
            continue
        print(rendered)
        print()
    return status


def _cmd_demo(_args: argparse.Namespace) -> int:
    """A self-contained miniature of examples/quickstart.py."""
    import numpy as np

    from repro.experiments.common import Deployment
    from repro.runtime.telemetry import OUTCOME_VALIDATION_REJECTED

    deployment = Deployment.build(num_users=4, seed=b"cli-demo")
    user_ids = [user.user_id for user in deployment.corpus.users]
    vectors = deployment.local_vectors()
    aggregate = deployment.honest_round(1)
    truth = np.mean(np.stack([vectors[u] for u in user_ids]), axis=0)
    print(f"blinded round of {len(user_ids)} clients over the message bus: "
          f"aggregate max error {float(np.max(np.abs(aggregate - truth))):.2e}")
    report = deployment.last_report
    print(f"  telemetry: {report.messages_sent} messages, "
          f"{report.bytes_on_wire} bytes, {report.latency_ms:.1f} ms simulated, "
          f"{report.ecalls} ecalls")
    engine = deployment.engine
    engine.open_round(2, 1, len(deployment.features))
    engine.provision_mask(user_ids[0], 2, 0)
    outcome = engine.contribute(
        user_ids[0],
        2,
        [538.0] + [0.0] * (len(deployment.features) - 1),
        deployment.features.bigrams,
    )
    if outcome == OUTCOME_VALIDATION_REJECTED:
        print("and the 538 attack is stopped in-enclave: validation-rejected")
    return 0


def _cmd_stream_smoke(args: argparse.Namespace) -> int:
    from repro.perf import stream_smoke

    if args.users < 1 or args.length < 1 or args.subgroup_size < 1:
        print(
            "--users, --length, and --subgroup-size must be >= 1",
            file=sys.stderr,
        )
        return 2
    return stream_smoke.main(
        args.users,
        length=args.length,
        subgroup_size=args.subgroup_size,
        max_rss_kb=args.max_rss_kb,
        as_json=args.json,
    )


def _service_for(args: argparse.Namespace):
    """Build (or recover) a GlimmerService over the chosen backend."""
    from repro.service import GlimmerService, build_backend

    backend = build_backend(args.backend, args.state_dir)
    if backend.get("service", "config") is not None:
        service = GlimmerService.recover(backend)
    else:
        service = GlimmerService(
            backend,
            base_seed=args.seed.encode("utf-8"),
            num_users=args.users,
            queue_capacity=args.queue_capacity,
            overflow=args.overflow,
        )
    return service


def _cmd_serve_chaos(args: argparse.Namespace) -> int:
    """Self-healing serve: faulty storage + kill-points, restart on death."""
    from repro.crypto.drbg import HmacDrbg
    from repro.errors import (
        ConfigurationError,
        ServiceKilledError,
        StorageError,
    )
    from repro.faults import (
        FaultInjector,
        FaultyStorageBackend,
        sample_service_plan,
    )
    from repro.service import GlimmerService, build_backend

    seed = args.chaos_seed.encode("utf-8")
    plan = sample_service_plan(
        HmacDrbg(seed, personalization="service-plan"),
        args.fault_rate,
        label=args.chaos_seed,
    )
    injector = FaultInjector(plan, seed=seed)
    tenants = [t for t in args.tenants.split(",") if t]
    restarts = 0
    while True:
        backend = FaultyStorageBackend(
            build_backend(args.backend, args.state_dir), injector
        )
        try:
            try:
                service = GlimmerService.recover(backend)
            except ConfigurationError:
                service = GlimmerService(
                    backend,
                    base_seed=args.seed.encode("utf-8"),
                    num_users=args.users,
                    queue_capacity=args.queue_capacity,
                    overflow=args.overflow,
                )
            service.attach_chaos(injector)
            for name in tenants:
                if name not in service.tenants:
                    service.add_tenant(name)
            for report in service.resume_sync():
                print(
                    f"recovered round {report.round_id}: "
                    f"{report.num_contributions} contributions"
                )
            for _ in range(args.rounds):
                reports = service.run_pending_sync(limit=args.batch)
                if not reports:
                    break
                for report in reports:
                    print(
                        f"round {report.round_id}: "
                        f"{report.num_contributions} contributions"
                    )
            repair = service.audit.verify_and_repair()
            print(
                f"chaos schedule {plan.label!r}: {restarts} restart(s), "
                f"{len(injector.fired_log())} fault(s) fired, audit "
                + ("repaired" if repair["repaired"] else "intact")
            )
            service.close()
            return 0
        except (ServiceKilledError, StorageError) as exc:
            restarts += 1
            print(
                f"incident: {type(exc).__name__}: {exc} -- "
                f"restarting from persisted state ({restarts})"
            )
            if restarts > args.max_restarts:
                print("giving up: max restarts exceeded", file=sys.stderr)
                return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.chaos_seed:
        return _cmd_serve_chaos(args)
    with _service_for(args) as service:
        for name in [t for t in args.tenants.split(",") if t]:
            if name not in service.tenants:
                service.add_tenant(name)
        if args.resume:
            for report in service.resume_sync():
                print(
                    f"resumed round {report.round_id}: "
                    f"{report.num_contributions} contributions"
                )
        for _ in range(args.rounds):
            reports = service.run_pending_sync(limit=args.batch)
            if not reports:
                print("no pending submissions; queue drained")
                break
            for report in reports:
                print(
                    f"round {report.round_id}: "
                    f"{report.num_contributions} contributions, "
                    f"{report.masks_repaired} repaired, "
                    f"{report.latency_ms:.1f} ms simulated"
                )
        for name, runtime in sorted(service.tenants.items()):
            print(f"tenant {name}: queue depth {runtime.queue.depth()}")
        print(f"audit chain verified: {service.audit.verify_chain()} entries")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.errors import AdmissionError, ConfigurationError

    with _service_for(args) as service:
        if args.tenant not in service.tenants:
            service.add_tenant(args.tenant)
        try:
            if args.values:
                values = [float(v) for v in args.values.split(",")]
                submission_id = service.submit(args.tenant, args.user, values)
            else:
                submission_id = service.submit_honest(args.tenant, args.user)
        except AdmissionError as exc:
            print(f"rejected: {exc}", file=sys.stderr)
            return 3
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        state = service.tenant(args.tenant).queue.state_of(submission_id)
        print(f"admitted {submission_id} ({state})")
    return 0


def _cmd_audit_verify(args: argparse.Namespace) -> int:
    from repro.service import AuditLog, build_backend

    audit = AuditLog(build_backend(args.backend, args.state_dir))
    if args.repair:
        report = audit.verify_and_repair()
        if report["repaired"]:
            print(
                f"repaired: break at entry {report['break_index']}, "
                f"{report['quarantined']} entries quarantined, "
                f"{report['truncated_by']} lost from the tail"
            )
        if report["ok"]:
            print(f"audit chain verified: {audit.verify_chain()} entries")
            return 0
        print("audit chain unrepairable", file=sys.stderr)
        return 1
    try:
        count = audit.verify_chain()
    except ValueError as exc:
        print(f"audit chain broken: {exc}", file=sys.stderr)
        print("run 'repro audit-verify --repair' to quarantine and re-anchor")
        return 1
    print(f"audit chain verified: {count} entries")
    return 0


def _add_service_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--state-dir", default="./glimmer-state",
        help="service state directory (default ./glimmer-state)",
    )
    parser.add_argument(
        "--backend", default="disk", choices=("memory", "disk", "sqlite"),
        help="storage backend (default disk; memory forgets on exit)",
    )
    parser.add_argument(
        "--seed", default="glimmer-service",
        help="base seed for tenant deployments (first run only)",
    )
    parser.add_argument(
        "--users", type=int, default=6,
        help="clients per tenant deployment (first run only)",
    )
    parser.add_argument(
        "--queue-capacity", type=int, default=16,
        help="submission queue bound per tenant (first run only)",
    )
    parser.add_argument(
        "--overflow", default="reject", choices=("reject", "defer"),
        help="admission policy past the queue bound (first run only)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Glimmers (HotOS 2017) reproduction — experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the experiment index").set_defaults(
        func=_cmd_list
    )

    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", help="experiment id, e.g. e4, or 'all'")
    run_parser.add_argument(
        "overrides", nargs="*", help="key=value parameter overrides"
    )
    run_parser.add_argument(
        "--json", action="store_true", help="print tables as JSON"
    )
    run_parser.add_argument(
        "--seed",
        help="deterministic seed threaded to every runner that accepts one",
    )
    run_parser.set_defaults(func=_cmd_run)

    sub.add_parser("demo", help="run the quickstart narrative").set_defaults(
        func=_cmd_demo
    )

    stream_parser = sub.add_parser(
        "stream-smoke",
        help="memory-bounded large-cohort streaming ingest round "
        "(hierarchical subgroup masks; exits 1 on inexact aggregate or "
        "blown RSS budget)",
    )
    stream_parser.add_argument(
        "--users", type=int, default=100_000, help="cohort size (default 100000)"
    )
    stream_parser.add_argument(
        "--length",
        type=int,
        default=64,
        help="contribution vector length in ring words (default 64)",
    )
    stream_parser.add_argument(
        "--subgroup-size",
        type=int,
        default=256,
        help="bounded subgroup size g (default 256)",
    )
    stream_parser.add_argument(
        "--max-rss-kb",
        type=int,
        default=None,
        help="fail (exit 1) if process peak RSS exceeds this many KiB",
    )
    stream_parser.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    stream_parser.set_defaults(func=_cmd_stream_smoke)

    serve_parser = sub.add_parser(
        "serve", help="drain queued submissions through overlapping rounds"
    )
    _add_service_arguments(serve_parser)
    serve_parser.add_argument(
        "--tenants", default="tenant-a",
        help="comma-separated tenant names to ensure exist (default tenant-a)",
    )
    serve_parser.add_argument(
        "--rounds", type=int, default=1,
        help="how many rounds-per-tenant sweeps to run (default 1)",
    )
    serve_parser.add_argument(
        "--batch", type=int, default=None,
        help="max submissions per round (default: all pending, one per user)",
    )
    serve_parser.add_argument(
        "--resume", action="store_true",
        help="first finish rounds a previous process left open in the journal",
    )
    serve_parser.add_argument(
        "--chaos-seed",
        help="run the self-healing loop under a DRBG-scheduled fault plan "
        "seeded by this string (storage faults + kill-points; the service "
        "restarts from persisted state after every incident)",
    )
    serve_parser.add_argument(
        "--fault-rate", type=float, default=0.1,
        help="fault density for --chaos-seed schedules (default 0.1)",
    )
    serve_parser.add_argument(
        "--max-restarts", type=int, default=25,
        help="give up after this many chaos restarts (default 25)",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    submit_parser = sub.add_parser(
        "submit", help="enqueue one client submission into the durable queue"
    )
    _add_service_arguments(submit_parser)
    submit_parser.add_argument("--tenant", default="tenant-a")
    submit_parser.add_argument(
        "--user", required=True, help="client id, e.g. user-0000"
    )
    submit_parser.add_argument(
        "--values",
        help="comma-separated contribution values "
        "(default: the user's honestly trained vector)",
    )
    submit_parser.set_defaults(func=_cmd_submit)

    audit_parser = sub.add_parser(
        "audit-verify",
        help="verify the service audit chain; exits 1 on any break",
    )
    audit_parser.add_argument(
        "--state-dir", default="./glimmer-state",
        help="service state directory (default ./glimmer-state)",
    )
    audit_parser.add_argument(
        "--backend", default="disk", choices=("memory", "disk", "sqlite"),
        help="storage backend holding the audit log (default disk)",
    )
    audit_parser.add_argument(
        "--repair", action="store_true",
        help="quarantine broken history under an explicit repair record "
        "and re-anchor the chain; exits 0 once the chain verifies again",
    )
    audit_parser.set_defaults(func=_cmd_audit_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

"""roundbench's command line.

With ``--workload`` it runs that workload in this process and prints,
after a readable table, one JSON result line (the form the benchmark
driver consumes).  Without it, it runs every workload, each in a fresh
subprocess of this same file so that ``peak_rss_mib`` is the workload's
own ``VmHWM``, prints the tables, and writes the collected records to
``--out`` for :mod:`benchmarks.roundbench.compare`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Scratch space (service state, trace files), inside the checkout.
WORKDIR = ".roundbench"


def _bootstrap() -> None:
    """Make ``repro`` and ``benchmarks.roundbench`` importable."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.stderr.write(
            f"roundbench: {src}/repro not found; there is no system to measure\n"
        )
        raise SystemExit(2)
    # As a script, sys.path[0] is this directory, whose trace.py would
    # shadow the standard library's.
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    for path in (src, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def _workdir() -> str:
    return os.path.join(os.getcwd(), WORKDIR)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roundbench",
        description="Measure every round path end to end and layer by layer.",
    )
    parser.add_argument("--workload", help="run only this workload, in-process")
    parser.add_argument("--seed", type=int, help="input seed (default: development seed)")
    parser.add_argument(
        "--seconds", type=float, default=32.0,
        help="nominal length of the measured phase; it sets the operation "
        "counts (32: 20/40/12/6/8 operations, 384 and 1024 submits)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="record spans and report the per-layer metrics",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, no timing claims")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload (seeds S, S+1, ...)")
    parser.add_argument("--out", help="write the collected records as JSON")
    return parser


def _print_metrics(title: str, definitions, values: dict) -> None:
    print(title)
    for definition in definitions:
        value = values.get(definition.name)
        if value is None:
            continue
        print(f"  {definition.name:<52} {value:>16.6f} {definition.unit}")


def print_record(record: dict) -> None:
    from benchmarks.roundbench import metrics

    print(
        f"== {record['workload']}  seed={record['seed']} seconds={record['seconds']:g} "
        f"samples={record['samples']} "
        f"warm-up ops (s): {[round(s, 3) for s in record['warmup_s']]}"
    )
    if "end_to_end" in record:
        _print_metrics(
            "end-to-end (untraced pass)", metrics.END_TO_END, record["end_to_end"]
        )
    if "per_layer" in record:
        _print_metrics("per-layer (traced pass)", metrics.PER_LAYER, record["per_layer"])
        accounting = record["accounting"]
        layers = accounting["layer_self_ms_per_client"]
        print("accounting (ms/client): layer self times + unattributed = traced wall")
        for layer, value in layers.items():
            print(f"  {layer:<52} {value:>16.6f} ms")
        print(
            f"  {'= ' + format(sum(layers.values()), '.6f')} + "
            f"{accounting['unattributed_ms_per_client']:.6f} unattributed = "
            f"{accounting['wall_ms_per_client']:.6f}; "
            f"{record['spans']} spans in {record['trace_file']}"
        )
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def run_one(args) -> int:
    """Driver form: one workload in this process, result on the last line."""
    from benchmarks.roundbench import metrics, runner, workloads

    if args.workload not in metrics.WORKLOADS:
        sys.stderr.write(f"roundbench: unknown workload {args.workload!r}\n")
        return 2
    seed = workloads.DEV_SEED if args.seed is None else args.seed
    record = runner.run_workload(
        args.workload, seed, args.seconds, bool(args.trace), args.smoke, _workdir()
    )
    print_record(record)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle)
    if not record["correct"]:
        sys.stderr.write(
            f"roundbench: {record['failed']} of {record['attempted']} operations "
            f"failed on {args.workload}\n"
        )
        return 1
    if args.trace:
        listed, values = metrics.PER_LAYER, record["per_layer"]
    else:
        listed = [m for m in metrics.END_TO_END if m.name in metrics.DRIVER_END_TO_END]
        values = record["end_to_end"]
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    m.name: {"value": values[m.name], "unit": m.unit} for m in listed
                },
            }
        )
    )
    return 0


def _child(workload: str, seed: int, args, trace: int) -> dict | None:
    workdir = _workdir()
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, f"record-{workload}-{seed}-{trace}.json")
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--out", out,
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    # The child's table, without its machine-readable last line.
    lines = done.stdout.splitlines()
    print("\n".join(lines[:-1] if done.returncode == 0 else lines))
    if not os.path.exists(out):
        return None
    with open(out) as handle:
        record = json.load(handle)
    os.unlink(out)
    return record


def run_all(args) -> int:
    """Every workload, one fresh subprocess per run."""
    from benchmarks.roundbench import metrics, workloads

    seed = workloads.DEV_SEED if args.seed is None else args.seed
    collected = {"seed": seed, "seconds": args.seconds, "smoke": args.smoke,
                 "runs": {}, "traced": {}}
    ok = True
    # Repeats outermost: the runs of one workload are spread over the
    # whole session, so a slow spell of the machine shows as spread.
    for repeat in range(args.repeat):
        for workload in metrics.WORKLOADS:
            record = _child(workload, seed + repeat, args, 0)
            ok = ok and record is not None and record["correct"]
            if record is not None:
                collected["runs"].setdefault(workload, []).append(record)
    if args.trace:
        for workload in metrics.WORKLOADS:
            record = _child(workload, seed, args, 1)
            ok = ok and record is not None and record["correct"]
            if record is not None:
                collected["traced"][workload] = record
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(collected, handle, indent=1)
    print("roundbench: all checks passed" if ok else "roundbench: FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _bootstrap()
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())

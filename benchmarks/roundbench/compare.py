"""Compare two sets of roundbench results, workload by end-to-end metric.

    python -m benchmarks.roundbench.compare A.json B.json
    python -m benchmarks.roundbench.compare A0.json,A1.json B0.json,B1.json

``A`` is the base (the parent commit), ``B`` the change; each side is one
or more ``--out`` files of full runs (comma-separated: runs made in
alternation, A B A B ..., land in one file per invocation).  For every
pairing it prints both medians, the ratio B/A, the bound, the run-to-run
spread (interquartile range over the median, the wider of the two sides)
and a verdict:

* ``ok`` — B's median is no worse than A's by more than the bound;
* ``worse`` — it is;
* ``unresolved`` — a side has fewer than two runs, or the spread is
  wider than the bound, so the runs cannot tell, unless every run of B
  reads better than every run of A (``ok``) or every run reads worse and
  the medians differ by more than the bound (``worse``).

An exact count is compared run by run instead — the k-th run of both
sides has the same seed — and is ``worse`` if any run is.

Exit status is 1 when any pairing is ``worse``, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys

from . import measure, metrics


def load(paths: str) -> dict[str, list[dict]]:
    """The untraced runs of one side, per workload, files in the order given."""
    runs: dict[str, list[dict]] = {}
    for path in paths.split(","):
        with open(path) as handle:
            for workload, records in json.load(handle).get("runs", {}).items():
                runs.setdefault(workload, []).extend(records)
    return runs


def _values(runs: dict, workload: str, name: str) -> list[float]:
    values = [run["end_to_end"].get(name) for run in runs.get(workload, [])]
    return [v for v in values if v is not None]


def verdict(definition, base: list[float], change: list[float]):
    """``(status, median A, median B, spread)`` for one pairing."""
    a = statistics.median(base)
    b = statistics.median(change)
    sign = 1.0 if definition.better == "lower" else -1.0
    worse_by = sign * (b - a)
    if not definition.absolute:
        worse_by = worse_by / abs(a) if a else (0.0 if b == a else float("inf"))
    spread = max(measure.spread(base), measure.spread(change))
    if definition.exact or definition.absolute:
        pairs = zip(base, change) if len(base) == len(change) else [(a, b)]
        status = "worse" if any(sign * (y - x) > definition.bound for x, y in pairs) else "ok"
    elif min(len(base), len(change)) < 2:
        status = "unresolved"
    elif spread <= definition.bound:
        status = "worse" if worse_by > definition.bound else "ok"
    elif all(sign * (y - x) <= 0 for x in base for y in change):
        status = "ok"
    elif worse_by > definition.bound and all(
        sign * (y - x) > 0 for x in base for y in change
    ):
        status = "worse"
    else:
        status = "unresolved"
    return status, a, b, spread


def compare(base: dict, change: dict, out=sys.stdout) -> int:
    """Print the table for two ``load()``-ed sides; 1 if any pairing is worse."""
    counts = {"ok": 0, "worse": 0, "unresolved": 0}
    header = (
        f"{'workload':<14} {'metric':<26} {'A':>14} {'B':>14} {'B/A':>8} "
        f"{'bound':>7} {'spread':>7}  verdict"
    )
    print(header, file=out)
    for workload in metrics.WORKLOADS:
        for definition in metrics.END_TO_END:
            if workload not in definition.workloads:
                continue
            a_values = _values(base, workload, definition.name)
            b_values = _values(change, workload, definition.name)
            if not a_values or not b_values:
                continue
            status, a, b, spread = verdict(definition, a_values, b_values)
            counts[status] += 1
            ratio = f"{b / a:8.4f}" if a else f"{'-':>8}"
            bound = (
                f"{definition.bound:7.3f}" if definition.absolute
                else f"{definition.bound:6.0%} "
            )
            print(
                f"{workload:<14} {definition.name:<26} {a:14.4f} {b:14.4f} {ratio} "
                f"{bound} {spread:6.1%}   {status}  "
                f"[{definition.unit}, base A, n={len(a_values)}/{len(b_values)}]",
                file=out,
            )
    print(
        f"{counts['ok']} ok, {counts['worse']} worse, "
        f"{counts['unresolved']} unresolved",
        file=out,
    )
    return 1 if counts["worse"] else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    return compare(load(argv[0]), load(argv[1]))


if __name__ == "__main__":
    raise SystemExit(main())

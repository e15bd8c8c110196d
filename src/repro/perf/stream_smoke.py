"""Memory-bounded large-cohort smoke round (``repro stream-smoke``).

The engine-scale hierarchical path still pays O(n) once per round for
Pedersen mask commitments, so it cannot demonstrate the DESIGN.md §10
memory claim at 100k+ clients.  This harness exercises exactly the
subsystems that claim covers — the DRBG-keyed subgroup plan, per-subgroup
sum-zero families re-expanded O(g) at a time, and fold-on-arrival
subgroup accumulators — over a synthetic cohort, then proves the result
bit-exact against an independently accumulated ring sum of the surviving
plaintexts.

Peak RSS is read at the end (``VmHWM`` where procfs exists, else
``resource.getrusage``), so the harness is meant to run in its own
process (the CLI command): the measurement is then "memory needed for
the whole ingest", which is the quantity the CI ``large-cohort`` job
budgets.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.crypto.drbg import HmacDrbg
from repro.crypto.fixedpoint import FixedPointCodec
from repro.crypto.masking import GroupedSumZeroMasks
from repro.errors import ConfigurationError

DEFAULT_LENGTH = 64
DEFAULT_SUBGROUP = 256
#: Slots dropped from the synthetic cohort (every k-th; prime so the
#: dropouts spread across subgroup boundaries instead of aliasing them).
DROPOUT_STRIDE = 97


def _slot_values(slot: int, length: int) -> list[float]:
    """A cheap deterministic per-slot vector in [-11/16, 11/16]."""
    return [((slot + j) % 23 - 11) / 16 for j in range(length)]


def run_stream_smoke(
    num_users: int,
    length: int = DEFAULT_LENGTH,
    subgroup_size: int = DEFAULT_SUBGROUP,
    round_id: int = 1,
    dropout_stride: int = DROPOUT_STRIDE,
    seed: bytes = b"stream-smoke",
) -> dict:
    """One streaming ingest round; returns the report dict.

    Walks the cohort subgroup by subgroup (so the grouped-mask cache
    serves every slot warm), blinds each surviving slot with its §3
    mask, folds it into the streaming accumulator, and folds the
    *mask* of every dropped slot as the repair — per-subgroup families
    sum to zero, so present-blinded plus dropped-masks telescopes to the
    plaintext sum of the survivors.  ``exact`` compares that against a
    directly accumulated ring sum, word for word.
    """
    if num_users < 1:
        raise ConfigurationError("need at least one user")
    from repro.scale.streaming import StreamingSubgroupAccumulator
    from repro.scale.subgroup import plan_subgroups

    start = time.perf_counter()
    plan = plan_subgroups(round_id, num_users, subgroup_size)
    rng = HmacDrbg(seed, personalization="stream-smoke")
    masks = GroupedSumZeroMasks.sample(plan, length, rng.fork("masks"))
    codec = FixedPointCodec()
    accumulator = StreamingSubgroupAccumulator(plan)
    expected = np.zeros(length, dtype=np.uint64)
    survivors = 0
    dropouts = 0
    for group in range(plan.num_groups):
        family = masks.group_family(group)
        for local, slot in enumerate(plan.slots_in(group)):
            mask = np.asarray(family.mask_for(local), dtype=np.uint64)
            if dropout_stride and slot % dropout_stride == 0:
                # §3 repair: the blinder reveals the dropped slot's mask
                # and the service folds it; within the slot's subgroup
                # the family still telescopes to zero.
                accumulator.fold_repair(mask, slot=slot)
                dropouts += 1
                continue
            encoded = np.asarray(
                codec.encode(_slot_values(slot, length)), dtype=np.uint64
            )
            accumulator.fold(encoded + mask, slot=slot)
            expected += encoded
            survivors += 1
    total = accumulator.total()
    exact = bool(np.array_equal(total, expected))
    mean = codec.decode(total) / max(survivors, 1)
    wall = time.perf_counter() - start
    return {
        "num_users": num_users,
        "length": length,
        "subgroup_size": plan.group_size,
        "num_groups": plan.num_groups,
        "survivors": survivors,
        "dropouts": dropouts,
        "folds": accumulator.folded,
        "repairs": accumulator.repairs_folded,
        "exact": exact,
        "mean_head": [float(v) for v in mean[: min(4, length)]],
        "wall_s": wall,
        "users_per_sec": num_users / wall if wall > 0 else math.inf,
        "peak_rss_kb": peak_rss_kb(),
    }


def peak_rss_kb() -> int | None:
    """This process's lifetime peak RSS in KiB (None where unavailable).

    Prefers ``VmHWM`` from ``/proc/self/status``: some kernels carry the
    parent's ``ru_maxrss`` high-water mark across fork+exec, which would
    make a subprocess-isolated measurement report the *parent's* peak.
    ``VmHWM`` is re-established on exec, so it is the child's own.  Falls
    back to ``ru_maxrss`` (kilobytes on Linux, bytes on macOS —
    normalized) elsewhere.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:  # pragma: no cover - no procfs
        pass
    try:
        import resource
        import sys
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS units
        peak //= 1024
    return int(peak)


def main(
    num_users: int,
    length: int = DEFAULT_LENGTH,
    subgroup_size: int = DEFAULT_SUBGROUP,
    max_rss_kb: int | None = None,
    as_json: bool = False,
) -> int:
    """The ``repro stream-smoke`` entry point; returns the exit code.

    Exits 1 when the aggregate is not bit-exact or peak RSS exceeds
    ``--max-rss-kb`` — the CI large-cohort job's pass/fail line.
    """
    report = run_stream_smoke(
        num_users, length=length, subgroup_size=subgroup_size
    )
    over_budget = (
        max_rss_kb is not None
        and report["peak_rss_kb"] is not None
        and report["peak_rss_kb"] > max_rss_kb
    )
    report["max_rss_kb"] = max_rss_kb
    report["rss_ok"] = not over_budget
    if as_json:
        import json

        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        rss = report["peak_rss_kb"]
        print(
            f"stream-smoke: {report['num_users']} users x "
            f"{report['length']} words, subgroups of "
            f"{report['subgroup_size']} ({report['num_groups']} groups) — "
            f"{report['survivors']} survived, {report['dropouts']} repaired "
            f"in {report['wall_s']:.2f}s "
            f"({report['users_per_sec']:.0f} users/s)"
        )
        print(
            f"  aggregate bit-exact: {report['exact']}; peak RSS "
            + (f"{rss / 1024:.0f} MiB" if rss is not None else "n/a")
            + (
                f" (budget {max_rss_kb / 1024:.0f} MiB: "
                + ("OK" if not over_budget else "EXCEEDED")
                + ")"
                if max_rss_kb is not None
                else ""
            )
        )
    if not report["exact"] or over_budget:
        return 1
    return 0

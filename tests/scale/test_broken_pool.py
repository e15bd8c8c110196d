"""A dead worker costs one round, not the engine.

``ProcessPoolExecutor`` is unusable for good once one of its processes
dies; the engine used to keep handing every later round to that same
broken pool.  Now the round the death lands in is a benign abort with a
partial report, the pool is dropped, and the next round forks a fresh
one — with no silent rerun on the serial path.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro import invariants
from repro.errors import ProtocolError, RoundAbortedError
from repro.experiments.common import Deployment
from repro.scale import ScaleConfig


def test_killed_worker_aborts_one_round_and_the_next_forks_a_fresh_pool():
    deployment = Deployment.build(
        num_users=6,
        seed=b"broken-pool",
        parallelism=ScaleConfig(workers=2, shards=2),
    )
    users = [u.user_id for u in deployment.corpus.users]
    vectors = deployment.local_vectors()

    def run(engine, round_id):
        return engine.run_round(round_id, users, vectors, deployment.features.bigrams)

    with deployment.engine as engine:
        first = run(engine, 1)
        assert invariants.judge(first, deployment.codec, vectors).outcome == (
            "clean-finalize"
        )

        broken = engine._scale_pool
        os.kill(next(iter(broken._executor._processes)), signal.SIGKILL)

        with pytest.raises(RoundAbortedError) as aborted:
            run(engine, 2)
        verdict = invariants.judge(aborted.value, deployment.codec, vectors)
        assert verdict.outcome == "benign-abort" and verdict.offenders == ()
        report = aborted.value.report
        assert report.aborted and report.aggregate is None
        assert "worker pool broke" in report.abort_reason
        assert not report.violations and report.num_contributions == 0
        assert engine._scale_pool is None, "the broken pool is dropped, not kept"
        engine.abandon_round(2)
        assert 2 not in engine._rounds
        # No silent rerun on the serial path: the round id is spent.
        with pytest.raises(ProtocolError, match="closed"):
            deployment.service.round_state(2)

        third = run(engine, 3)
        assert engine._scale_pool is not None and engine._scale_pool is not broken
        assert third.route_reason is None and third.num_contributions == len(users)
        np.testing.assert_array_equal(
            np.asarray(third.aggregate),
            invariants.exact_mean(deployment.codec, vectors, users),
        )

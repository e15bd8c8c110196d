"""What crosses the pool boundary, and what never reaches it.

Every pooled round pickles each ``ClientDevice`` to a worker and back.
The cohort's frozen values (the Glimmer image, the DH groups, the cost
model, public keys, the codec and the Glimmer config) are interned at
that boundary, so a device that comes back points at the parent's own
objects, a chunk pickles each shared value once, and nothing the round
computes changes: results still round-trip by value.

A process whose rounds never pool never loads the pool either: serial,
streamed and service rounds on the memory and disk backends run without
``multiprocessing``, ``concurrent.futures`` or ``sqlite3`` in the
interpreter.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import subprocess
import sys
import threading

from multiprocessing.reduction import ForkingPickler

from repro import codec
from repro.experiments.common import Deployment
from repro.scale import ScaleConfig
from repro.scale import pool
from repro.sgx.costs import CostModel

#: ``ForkingPickler`` bytes per client of round 3's dispatch, for the
#: 8-device cohort below.  Measured 10,399 B; before the pool interned
#: its shared values, every round's clones piled up and it read 17,724.
ROUND_3_TASK_BYTES_PER_CLIENT = 12_000


def _deployment(num_users=8):
    return Deployment.build(
        num_users=num_users,
        seed=b"pool-boundary",
        parallelism=ScaleConfig(workers=2, shards=2),
    )


def _shared(client) -> dict[str, object]:
    """The values a device shares with its cohort, by where it holds them."""
    return {
        "image": client.image,
        "glimmer.image": client.glimmer.image,
        "vendor group": client.image.vendor_public.group,
        "handshake group": client.glimmer._program._handshakes._group,
        "cost model": client.platform.cost_model,
    }


def _round_trip(value):
    return ForkingPickler.loads(ForkingPickler.dumps(value))


class _Recorder:
    """Wraps the pool's ``map_chunks``: sizes each dispatch as the pool
    pickles it, and keeps the results that came back."""

    def __init__(self, engine) -> None:
        self.task_bytes_per_client: list[float] = []
        self.results = []
        worker_pool = engine.scale_pool()
        dispatch = worker_pool.map_chunks

        def recorded(context, chunks):
            size = sum(len(ForkingPickler.dumps((context, c))) for c in chunks)
            self.task_bytes_per_client.append(size / sum(map(len, chunks)))
            returned = dispatch(context, chunks)
            self.results.append([r for chunk in returned for r in chunk])
            return returned

        worker_pool.map_chunks = recorded


def _pooled_round(deployment, round_id) -> None:
    deployment.honest_round(round_id)
    assert deployment.last_report.route_reason is None


# ------------------------------------------------------------ sharing


def test_devices_keep_their_shared_values_across_pooled_rounds():
    deployment = _deployment()
    before = {uid: _shared(c) for uid, c in deployment.clients.items()}
    with deployment.engine as engine:
        recorder = _Recorder(engine)
        for round_id in range(1, 5):
            _pooled_round(deployment, round_id)
    assert len(recorder.results) == 4
    for uid, client in deployment.clients.items():
        for where, value in _shared(client).items():
            assert value is before[uid][where], (uid, where)
    # One image for the whole cohort, as serial rounds leave it.
    assert len({id(client.image) for client in deployment.clients.values()}) == 1


def test_task_size_is_bounded_and_the_intern_table_does_not_grow():
    deployment = _deployment()
    table_sizes = []
    with deployment.engine as engine:
        recorder = _Recorder(engine)
        for round_id in range(1, 6):
            _pooled_round(deployment, round_id)
            gc.collect()
            table_sizes.append(len(pool._interned))
    assert recorder.task_bytes_per_client[2] <= ROUND_3_TASK_BYTES_PER_CLIENT
    assert table_sizes[4] <= table_sizes[2]


# ------------------------------------------------------------ safety


def _samples(deployment) -> list:
    client = next(iter(deployment.clients.values()))
    program = client.glimmer._program
    samples = [
        client.image,
        client.image.vendor_public.group,
        client.platform.cost_model,
        client.image.vendor_public,
        deployment.vendor,
        deployment.codec,
        program._config,
    ]
    assert [type(value) for value in samples] == list(pool.INTERNED_TYPES)
    return samples


def test_every_interned_type_is_a_frozen_dataclass_whose_fields_hash():
    for value in _samples(_deployment(num_users=2)):
        cls = type(value)
        assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
        for field in dataclasses.fields(cls):
            hash(getattr(value, field.name))


def test_a_round_trip_in_the_sender_returns_the_original():
    for value in _samples(_deployment(num_users=2)):
        assert _round_trip(value) is value


def test_values_that_differ_in_any_field_stay_two_objects():
    deployment = _deployment(num_users=2)
    image = deployment.image
    config = next(iter(deployment.clients.values())).glimmer._program._config
    signature = image.vendor_signature
    pairs = [
        (image, dataclasses.replace(image, code=image.code + b"#")),
        # Equal under ``==``, yet not the same value: a sign bit, a type,
        # and a field the signature's own ``==`` leaves out.
        (config, dataclasses.replace(config, dp_sigma=-0.0)),
        (CostModel(), CostModel(copy_cycles_per_byte=1)),
        (CostModel(ecall_cycles=1), CostModel(ecall_cycles=True)),
        (
            image,
            dataclasses.replace(
                image,
                vendor_signature=dataclasses.replace(
                    signature, commitment=(signature.commitment or 0) + 1
                ),
            ),
        ),
    ]
    for a, b in pairs:
        assert a is not b
        left, right = _round_trip((a, b))
        assert left is a and right is b


def test_a_receiver_builds_a_value_it_lacks_once_then_shares_it():
    image = _deployment(num_users=2).image
    other = dataclasses.replace(image, code=b"other")
    blob = ForkingPickler.dumps(other)
    code, mrenclave = other.code, other.mrenclave
    del other
    gc.collect()
    first, second = ForkingPickler.loads(blob), ForkingPickler.loads(blob)
    assert first is second
    assert (first.code, first.mrenclave) == (code, mrenclave) != (
        image.code,
        image.mrenclave,
    )
    # Its nested values are the ones this process already holds.
    assert first.vendor_public is image.vendor_public


def test_quotes_and_signed_contributions_round_trip_by_value():
    deployment = _deployment(num_users=4)
    with deployment.engine as engine:
        recorder = _Recorder(engine)
        _pooled_round(deployment, 1)
    (results,) = recorder.results
    quotes = [result.quote for result in results]
    signed = [result.signed for result in results]
    assert all(quote is not None for quote in quotes)  # round 1: full legs
    assert all(contribution is not None for contribution in signed)
    for value in quotes + signed:
        copy = _round_trip(value)
        assert copy == value
        assert codec.encode(copy) == codec.encode(value)


def test_concurrent_loads_of_one_value_share_one_instance():
    """The pool's feeder and result threads share the table: loads racing
    on values the process lacks must still build each one once."""
    image = _deployment(num_users=2).image
    blobs = [
        ForkingPickler.dumps(dataclasses.replace(image, code=b"raced %d" % n))
        for n in range(300)
    ]
    gc.collect()
    loaded = {n: [] for n in range(len(blobs))}
    start = threading.Barrier(8)

    def load():
        start.wait(timeout=10)
        for n, blob in enumerate(blobs):
            loaded[n].append(ForkingPickler.loads(blob))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=load) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for values in loaded.values():
        assert len(values) == 8
        assert len({id(value) for value in values}) == 1


# ------------------------------------------------------------ route-scoped imports


#: Modules only the worker pool and ``SQLiteBackend`` need.
ROUTE_SCOPED = ("multiprocessing", "concurrent.futures", "sqlite3", "repro.scale.pool")

#: One serial, one streamed and one service round per non-SQLite backend,
#: then the route-scoped modules the interpreter loaded.
_ROUTES_SCRIPT = """
import json, sys, tempfile
from repro.experiments.common import Deployment
from repro.scale import ScaleConfig
from repro.service import GlimmerService, build_backend

serial = Deployment.build(num_users=4, seed=b"routes:serial")
serial.honest_round(1)
assert serial.last_report.subgroup_size == 0
streamed = Deployment.build(
    num_users=8, seed=b"routes:streamed", parallelism=ScaleConfig(subgroup_size=4)
)
streamed.honest_round(1)
assert streamed.last_report.subgroup_size == 4
with tempfile.TemporaryDirectory() as state:
    for backend in (build_backend("memory"), build_backend("disk", state)):
        service = GlimmerService(backend, num_users=4, sentences_per_user=4)
        runtime = service.add_tenant("alpha")
        for user in sorted(runtime.deployment.clients):
            service.submit_honest("alpha", user)
        assert len(service.run_pending_sync()) == 1
        service.close()
print(json.dumps(sorted(name for name in %r if name in sys.modules)))
"""


def test_serial_streamed_and_service_rounds_never_load_the_pool_or_sqlite():
    """In a fresh interpreter, so what earlier tests imported cannot hide
    an import the round itself makes."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    child = subprocess.run(
        [sys.executable, "-c", _ROUTES_SCRIPT % (ROUTE_SCOPED,)],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout.splitlines()[-1]) == []

"""Ablation bench: EPC pressure on Glimmer contribution cost.

DESIGN.md §6 calls out the simulator's EPC model.  SGX1-era enclaves page
against a ~96 MiB EPC; a Glimmer co-resident with bigger enclaves (or a
bloated Glimmer) pays page-fault cycles on every entry.  This bench sweeps
the Glimmer's declared working set against a fixed small EPC and reports
simulated cycles per contribution — the argument for keeping Glimmers
"small and limited" (§3) in one table.
"""

from repro.analysis.reporting import Table
from repro.core.client import ClientDevice, LocalDataStore
from repro.core.glimmer import GlimmerConfig, build_glimmer_image, features_digest, pack_features
from repro.core.provisioning import BlinderProvisioner, ServiceProvisioner
from repro.crypto.masking import BlindingService
from repro.experiments.common import Deployment
from repro.sgx.costs import CostModel

FEATURES = tuple((f"w{i}", f"v{i}") for i in range(32))
EPC_BYTES = 4 << 20  # a deliberately tiny EPC to expose the paging slope
MEMORY_SWEEP = (1 << 20, 4 << 20, 16 << 20, 64 << 20)


def _cycles_for_memory(deployment, memory_bytes, index):
    config = GlimmerConfig(
        predicate_spec="range:0.0:1.0",
        service_identity=deployment.service_identity.public_key,
        blinder_identity=deployment.blinder_identity.public_key,
        features_digest=features_digest(FEATURES),
    )
    name = f"epc-glimmer-{index}"
    image = build_glimmer_image(
        deployment.vendor, config, name=name, memory_bytes=memory_bytes
    )
    deployment.registry.publish(name, image.mrenclave)
    client = ClientDevice(
        f"epc-client-{index}", image, deployment.attestation,
        seed=f"epc-{index}".encode(), data=LocalDataStore(),
    )
    client.platform.epc_bytes = EPC_BYTES
    provisioner = ServiceProvisioner(
        deployment.service_identity, deployment.signing_keypair,
        deployment.attestation, deployment.registry, name,
        deployment.rng.fork(f"epc-sp-{index}"),
    )
    blinder = BlinderProvisioner(
        deployment.blinder_identity,
        BlindingService(deployment.rng.fork(f"epc-bs-{index}"), deployment.codec),
        deployment.attestation, deployment.registry, name,
        deployment.rng.fork(f"epc-bp-{index}"),
    )
    client.provision_signing_key(provisioner)
    blinder.open_round(1, 1, len(FEATURES))
    client.provision_mask(blinder, 1, 0)
    client.glimmer.meter.reset()
    client.contribute(1, [0.5] * len(FEATURES), pack_features(FEATURES))
    return client.glimmer.meter


def test_bench_epc_pressure(benchmark):
    deployment = Deployment.build(
        num_users=1, seed=b"epc-bench", provision_clients=False
    )

    def sweep():
        table = Table(
            "Ablation: Glimmer working set vs a 4 MiB EPC (cycles/contribution)",
            ["glimmer memory", "paging cycles", "total cycles"],
        )
        for index, memory in enumerate(MEMORY_SWEEP):
            meter = _cycles_for_memory(deployment, memory, index)
            table.add_row(
                f"{memory >> 20} MiB",
                meter.buckets.get("epc-paging", 0),
                meter.total,
            )
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1, warmup_rounds=0)
    print()
    print(table.render())
    benchmark.extra_info["table"] = table.render()

"""The benchmark's workloads: scenario fields per workload, a function of the seed.

Each workload runs through the public engine.  The seed given on the command
line becomes the scenario's ``seed`` field and nothing else, so the program
receives only the generated spec.  ``smoke`` fields shrink a workload to a
few seconds for the self-tests; they keep every layer the workload
exercises.

The FAIR-BFL workloads use the label-sorted ``shard`` partition and FedAvg
the ``iid`` one, because both give every client a training shard for every
seed: the default ``dirichlet`` split leaves some client of the 100-client
committee with an empty training split on about one seed in five
(``ClientDataset`` raises), and a run that cannot start measures nothing.
FedAvg trains at ``learning_rate=0.5`` so that four rounds train a useful
model.  Final accuracy is 0.95 or more on seeds 0-20 and ``CONFIRM_SEED`` of
every workload and 1.0 on most of them, so it catches a broken model but not
a changed one; the history digests recorded in ``reference.json`` catch that.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "CONFIRM_SEED", "SMOKE_ACCURACY_FLOOR", "spec_fields"]

#: A second seed, not used while the benchmark was tuned, for confirming a claim.
CONFIRM_SEED = 7919

#: Smoke runs train for two or three rounds; they need only beat chance on
#: ten classes.
SMOKE_ACCURACY_FLOOR = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fields: dict
    smoke: dict
    #: Persist the run to a fresh run store and read it back.
    persist: bool = False
    #: Check every miner's chain and the chain's reward totals.
    ledger: bool = False
    #: ``final_accuracy`` must be above this; the lowest recorded is 0.95.
    accuracy_floor: float = 0.9
    #: The host-speed probe that scales this workload's times (see
    #: ``hostclock.py``): the kind of work that dominates it.
    probe: str = "python"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bfl-committee",
            why=(
                "The paper's setting: 100 clients, 4 miners, serial training, signatures, "
                "real PoW, attacks, store round trip; no cohort kernels or gossip."
            ),
            fields=dict(
                system="fairbfl",
                num_clients=100,
                scheme="shard",
                participation=0.5,
                num_rounds=60,
                miners=4,
                topology="global",
                use_real_pow=True,
                verify_signatures=True,
                attacks=True,
                attack_name="sign_flip",
                min_attackers=1,
                max_attackers=3,
                backend="serial",
            ),
            smoke=dict(num_clients=10, num_rounds=3, miners=2, num_samples=300),
            persist=True,
            ledger=True,
        ),
        Workload(
            name="bfl-population",
            why=(
                "1000 clients, 60 per round, cohort kernels, 6 gossip miners with a partition and "
                "churn: key generation dominates setup, transaction hashing the rounds."
            ),
            fields=dict(
                system="fairbfl",
                num_clients=1000,
                distinct_shards=64,
                scheme="shard",
                participation=0.06,
                num_rounds=25,
                miners=6,
                topology="random_k",
                peer_k=2,
                partition="8-10:0,1,2",
                churn="16:-5;20:+5",
                use_real_pow=True,
                verify_signatures=True,
                backend="cohort",
            ),
            smoke=dict(
                num_clients=40,
                distinct_shards=8,
                participation=0.25,
                num_rounds=4,
                num_samples=400,
                partition="1-1:0,1,2",
                churn="2:-5;3:+5",
            ),
            ledger=True,
        ),
        Workload(
            name="fl-population",
            why=(
                "FedAvg over 16400 clients, 4100 per round, streamed cohort kernels; "
                "no crypto or ledger, so the control for identity and ledger changes."
            ),
            fields=dict(
                system="fedavg",
                num_clients=16400,
                distinct_shards=64,
                participation=0.25,
                num_rounds=4,
                scheme="iid",
                learning_rate=0.5,
                backend="cohort",
            ),
            smoke=dict(num_clients=400, distinct_shards=8, num_rounds=2, num_samples=400),
            probe="numpy",
        ),
    )
}


def spec_fields(workload: str, seed: int, *, smoke: bool = False) -> dict:
    """The scenario fields of ``workload`` for ``seed``."""
    w = WORKLOADS[workload]
    fields = dict(w.fields, name=workload, seed=int(seed))
    if smoke:
        fields.update(w.smoke)
    return fields

"""Migration parity pin: ``topology="global"`` reproduces history bit-identically.

The gossip substrate must be a strict superset of the legacy single-network
path: a scenario that does not engage the net axes (``topology="global"``,
the default) has to produce byte-for-byte the same training history as
before the substrate existed.  Two pins enforce that:

1. **Golden replay** — the run records persisted under ``results/store/``
   were computed by earlier releases (before ``repro.net``); re-running
   their specs through today's code must reproduce every stored history
   payload exactly.
2. **No substrate on the global path** — a ``global`` trainer builds no
   :class:`~repro.net.substrate.GossipSubstrate`, draws nothing from its
   RNG streams, and emits no ``extras["net"]`` block.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.config import FairBFLConfig
from repro.core.fairbfl import FairBFLTrainer
from repro.datasets.federated import build_federated_dataset
from repro.runner.engine import ExperimentEngine
from repro.runner.scenario import ScenarioSpec
from repro.store.records import history_to_payload

pytestmark = pytest.mark.net

STORE_ROOT = Path(__file__).resolve().parents[1] / "results" / "store"


def _stored_fairbfl_records() -> list[dict]:
    """Deduped stored global-path records for FAIR-BFL systems.

    Records whose spec engages the net axes are excluded: the pin is about
    the legacy path, and a store accumulates net-engaged runs over time.
    """
    records: dict[str, dict] = {}
    for path in sorted(STORE_ROOT.glob("*/*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        spec = payload.get("spec", {})
        if not str(spec.get("system", "")).startswith("fairbfl"):
            continue
        if spec.get("topology", "global") != "global":
            continue
        records.setdefault(json.dumps(spec, sort_keys=True), payload)
    return list(records.values())


_RECORDS = _stored_fairbfl_records()


@pytest.mark.skipif(not _RECORDS, reason="no stored fairbfl run records to replay")
class TestGoldenReplay:
    @pytest.mark.parametrize(
        "stored",
        _RECORDS,
        ids=[r["spec"].get("name", "?") + "/" + r["spec"].get("round_mode", "?") for r in _RECORDS],
    )
    def test_stored_history_reproduced_bit_identically(self, stored):
        spec = ScenarioSpec.from_mapping(stored["spec"])
        # Pre-substrate mappings carry no net fields: defaults must place the
        # replay on the legacy path.
        assert spec.topology == "global"
        assert (spec.partition, spec.churn) == ("none", "none")
        history = ExperimentEngine().run(spec)
        replayed = json.loads(json.dumps(history_to_payload(history), sort_keys=True))
        assert replayed == stored["history"]


class TestGlobalPathBuildsNoSubstrate:
    def test_trainer_has_no_net(self):
        dataset = build_federated_dataset(
            num_clients=4, num_samples=200, scheme="iid", seed=3, noise_std=0.3
        )
        config = FairBFLConfig(num_rounds=1, participation_fraction=0.5, seed=3)
        assert config.topology == "global"
        trainer = FairBFLTrainer(dataset, config)
        assert trainer.net is None
        history = trainer.run()
        assert all("net" not in record.extras for record in history.rounds)

    def test_explicit_global_is_the_default_spec(self):
        bare = ScenarioSpec.from_mapping({"system": "fairbfl"})
        explicit = ScenarioSpec.from_mapping(
            {"system": "fairbfl", "topology": "global", "partition": "none", "churn": "none"}
        )
        assert bare.canonical_mapping() == explicit.canonical_mapping()

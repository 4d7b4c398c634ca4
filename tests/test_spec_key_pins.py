"""Literal ``spec_key`` pins: the run store's content addresses never drift.

``tests/test_store.py`` checks that keys are *stable* (same spec, same key,
across processes and mapping orders) and *sensitive* (any semantic field
changes the key).  Neither catches a refactor that moves every key at once —
a renamed field, a changed default, a reordered coercion — which would
silently orphan every record already in a store.  These literal digests do:
each is the key the spec had when it was first recorded, so a change that
moves one of them is a store-address migration and must be made on purpose
(with a ``KEY_SCHEMA_VERSION`` bump), never as a side effect.
"""

from __future__ import annotations

import pytest

from repro.runner.scenario import ScenarioSpec
from repro.store.keys import spec_key

PINNED = [
    (
        "default",
        ScenarioSpec(),
        "6fefed36926076bf10dce7feb845dd50209be72de0a03c173776063dd6b9d68e",
    ),
    (
        "fairbfl",
        ScenarioSpec(system="fairbfl"),
        "6fefed36926076bf10dce7feb845dd50209be72de0a03c173776063dd6b9d68e",
    ),
    (
        "fairbfl-discard",
        ScenarioSpec(system="fairbfl-discard"),
        "59f12cdceadb2c773452e50c99d8db4d70b9cba15f0b433ac7fc2b96f8c57f53",
    ),
    (
        "fedavg",
        ScenarioSpec(system="fedavg"),
        "d6c54a7ffc25a5b8ea2f9d8c80f95b8f14fee45ebb36385fb983a6fca285aa47",
    ),
    (
        "fedprox",
        ScenarioSpec(system="fedprox"),
        "f33d7a74b903d0fafb5621ba410021acd4be3d39014c76e2948f87446b358a05",
    ),
    (
        "blockchain",
        ScenarioSpec(system="blockchain"),
        "ff4484ac14b41d411e2517e8b087734cbbca8cd7e51d0c4179e842064fd97d37",
    ),
    (
        "cohort-distinct-shards",
        ScenarioSpec(
            system="fedavg",
            backend="cohort",
            num_clients=64,
            num_samples=600,
            distinct_shards=8,
            participation=0.25,
        ),
        "f2761e3d489cd62afc6ec5101ab619107414518f305bda6594bfe768338da5d0",
    ),
    (
        "random_k-partition-churn",
        ScenarioSpec(
            system="fairbfl",
            miners=5,
            topology="random_k",
            peer_k=2,
            partition="1-2:0,1",
            churn="1:-4;3:+4",
            num_rounds=4,
        ),
        "fcd597797f124e858ee73dda6cfa0526a12095fd13a3f9b6605b0e5d262ead50",
    ),
    (
        "async-norm_clip+krum",
        ScenarioSpec(
            system="fairbfl",
            round_mode="async",
            async_quorum=0.5,
            defense="norm_clip+krum",
            attacks=True,
            attack_name="scaling",
        ),
        "0ddbb577c1fa02f6a83d0330fa8a068ae5aee3458f9518ca798c29f95c44dafb",
    ),
]


@pytest.mark.parametrize(
    ("spec", "expected"),
    [(spec, key) for _, spec, key in PINNED],
    ids=[label for label, _, _ in PINNED],
)
def test_spec_key_is_pinned(spec, expected):
    assert spec_key(spec.validate()) == expected

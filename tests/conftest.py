"""Shared fixtures for the test suite.

Everything is intentionally tiny (a handful of clients, a few hundred
synthetic samples, 2-3 communication rounds) so the full suite stays fast
while still exercising every subsystem end to end.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# Allow running the tests without installing the package (src layout).
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.datasets.federated import build_federated_dataset  # noqa: E402
from repro.datasets.synthetic_mnist import load_synthetic_mnist  # noqa: E402
from repro.nn.models import MLPClassifier  # noqa: E402
from repro.runner.engine import ExperimentEngine  # noqa: E402
from repro.runner.scenario import ScenarioSpec  # noqa: E402
from repro.utils.rng import new_rng  # noqa: E402


def pytest_configure(config) -> None:
    """Register the suite-local markers (pytest has no ini file here)."""
    config.addinivalue_line(
        "markers",
        "serve: end-to-end tests that boot the HTTP experiment service "
        "(job queue, worker pool, fault injection)",
    )
    config.addinivalue_line(
        "markers",
        "net: gossip-substrate tests (topologies, partitions, churn, "
        "fork choice, reorg convergence) — `pytest -m net` runs just the "
        "network layer",
    )


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """A deterministic generator for test-local randomness."""
    return new_rng(1234, "tests")


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small flat synthetic-MNIST dataset (shared, read-only)."""
    return load_synthetic_mnist(400, seed=7, noise_std=0.3)


@pytest.fixture(scope="session")
def tiny_federated():
    """A small federated dataset: 6 clients, Dirichlet non-IID."""
    return build_federated_dataset(
        num_clients=6, num_samples=400, scheme="dirichlet", seed=7, noise_std=0.3
    )


@pytest.fixture(scope="session")
def engine() -> ExperimentEngine:
    """One engine for the session, so each dataset shape is built once."""
    return ExperimentEngine()


@pytest.fixture(scope="session")
def tiny_spec() -> ScenarioSpec:
    """A laptop-scale base scenario shared across integration tests.

    Derive variants with ``tiny_spec.with_overrides(system=..., ...)`` and
    run them with the session ``engine``.
    """
    return ScenarioSpec(
        name="tiny",
        num_clients=6,
        num_samples=400,
        num_rounds=2,
        participation=0.5,
        seed=7,
    )


@pytest.fixture()
def small_model(rng) -> MLPClassifier:
    """A small MLP for layer/optimiser tests."""
    return MLPClassifier(16, 4, rng, hidden_sizes=(8,))


def assert_vectors_close(a, b, *, atol=1e-9):
    """Convenience assertion reused by several test modules."""
    np.testing.assert_allclose(np.asarray(a), np.asarray(b), atol=atol)

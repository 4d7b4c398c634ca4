"""Federated dataset containers.

A :class:`FederatedDataset` owns the full dataset plus a per-client partition
and a shared held-out test set.  Clients see their shard through a
:class:`ClientDataset`, which also provides the verification split used to
compute the per-client accuracy that the paper averages every round.
:func:`build_federated_dataset` synthesises, partitions and (optionally)
corrupts the dataset every experiment runs on; the experiment engine builds
each scenario's dataset through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.partition import partition_dataset
from repro.datasets.synthetic_mnist import SyntheticMNIST, load_synthetic_mnist
from repro.utils.rng import new_rng

__all__ = [
    "ClientDataset",
    "FederatedDataset",
    "build_federated_dataset",
    "train_test_split",
    "inject_label_noise",
]


def train_test_split(
    dataset: SyntheticMNIST,
    rng: np.random.Generator,
    *,
    test_fraction: float = 0.2,
) -> tuple[SyntheticMNIST, SyntheticMNIST]:
    """Split ``dataset`` into train/test subsets (shuffled, disjoint)."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    n = len(dataset)
    perm = rng.permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    if n_test >= n:
        raise ValueError(
            f"test_fraction={test_fraction} leaves no training data for {n} samples"
        )
    test_idx = perm[:n_test]
    train_idx = perm[n_test:]
    return dataset.subset(train_idx), dataset.subset(test_idx)


@dataclass
class ClientDataset:
    """The data shard held by one federated client.

    Attributes
    ----------
    client_id:
        The index of the owning client.
    images, labels:
        Local training data.
    val_images, val_labels:
        Local verification split (used for the per-client accuracy the paper
        averages into "average accuracy").
    """

    client_id: int
    images: np.ndarray
    labels: np.ndarray
    val_images: np.ndarray
    val_labels: np.ndarray

    def __post_init__(self) -> None:
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.val_images = np.asarray(self.val_images, dtype=np.float64)
        self.val_labels = np.asarray(self.val_labels, dtype=np.int64)
        if self.images.shape[0] != self.labels.shape[0]:
            raise ValueError("images and labels must have the same number of rows")
        if self.val_images.shape[0] != self.val_labels.shape[0]:
            raise ValueError("val_images and val_labels must have the same number of rows")
        if self.images.shape[0] == 0:
            raise ValueError(f"client {self.client_id} received an empty training shard")

    @property
    def num_samples(self) -> int:
        """Number of local training samples (the self-reported 'data size')."""
        return int(self.images.shape[0])

    def label_distribution(self, num_classes: int = 10) -> np.ndarray:
        """Normalised label histogram of the local training data."""
        counts = np.bincount(self.labels, minlength=num_classes).astype(np.float64)
        total = counts.sum()
        return counts / total if total > 0 else counts


@dataclass
class FederatedDataset:
    """A dataset partitioned across ``num_clients`` clients plus a global test set."""

    clients: list[ClientDataset]
    test_images: np.ndarray
    test_labels: np.ndarray
    scheme: str = "shard"
    _partition_sizes: list[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if not self.clients:
            raise ValueError("FederatedDataset requires at least one client shard")
        self.test_images = np.asarray(self.test_images, dtype=np.float64)
        self.test_labels = np.asarray(self.test_labels, dtype=np.int64)
        self._partition_sizes = [c.num_samples for c in self.clients]

    @property
    def num_clients(self) -> int:
        return len(self.clients)

    @property
    def partition_sizes(self) -> list[int]:
        """Training-sample count per client."""
        return list(self._partition_sizes)

    def client(self, client_id: int) -> ClientDataset:
        """Return the shard of ``client_id``."""
        if not (0 <= client_id < len(self.clients)):
            raise IndexError(
                f"client_id must lie in [0, {len(self.clients)}), got {client_id}"
            )
        return self.clients[client_id]

    @classmethod
    def from_dataset(
        cls,
        dataset: SyntheticMNIST,
        num_clients: int,
        rng: np.random.Generator,
        *,
        scheme: str = "shard",
        shards_per_client: int = 2,
        alpha: float = 0.5,
        test_fraction: float = 0.15,
        client_val_fraction: float = 0.2,
    ) -> "FederatedDataset":
        """Build a federated dataset from a flat dataset.

        The flat dataset is first split into a global train/test pair; the
        training part is then partitioned across clients with the requested
        scheme, and each client shard is further split into local train /
        verification subsets.
        """
        if not (0.0 < client_val_fraction < 1.0):
            raise ValueError(
                f"client_val_fraction must lie in (0, 1), got {client_val_fraction}"
            )
        train, test = train_test_split(dataset, rng, test_fraction=test_fraction)
        # Each shard keeps at least one sample for validation, so a client
        # needs two to have anything to train on.  The Dirichlet scheme takes
        # its first draw that meets the minimum, so a draw in which every
        # client already had two samples is unchanged by asking for them.
        partitions = partition_dataset(
            train,
            num_clients,
            rng,
            scheme=scheme,
            shards_per_client=shards_per_client,
            alpha=alpha,
            min_samples_per_client=2,
        )
        clients: list[ClientDataset] = []
        for cid, idx in enumerate(partitions):
            shard_images = train.images[idx]
            shard_labels = train.labels[idx]
            n = idx.shape[0]
            n_val = max(1, int(round(n * client_val_fraction)))
            if n_val >= n:
                n_val = max(1, n - 1)
            perm = rng.permutation(n)
            val_sel = perm[:n_val]
            train_sel = perm[n_val:]
            clients.append(
                ClientDataset(
                    client_id=cid,
                    images=shard_images[train_sel],
                    labels=shard_labels[train_sel],
                    val_images=shard_images[val_sel],
                    val_labels=shard_labels[val_sel],
                )
            )
        return cls(
            clients=clients,
            test_images=test.images,
            test_labels=test.labels,
            scheme=scheme,
        )


def inject_label_noise(
    dataset: FederatedDataset,
    rng: np.random.Generator,
    *,
    client_fraction: float = 0.25,
    noise_level: float = 0.6,
    num_classes: int = 10,
) -> list[int]:
    """Turn a fraction of clients into low-quality contributors via label noise.

    The paper's cost-effectiveness argument (Section 5.3) is that discarding
    low-contributing clients "reduces the noise from low-quality data".  This
    helper creates exactly that population: ``client_fraction`` of the clients
    have ``noise_level`` of their *training* labels replaced with uniformly
    random classes (their verification splits are left clean so accuracy
    measurements stay meaningful).

    Returns the IDs of the corrupted clients (sorted).
    """
    if not (0.0 <= client_fraction <= 1.0):
        raise ValueError(f"client_fraction must lie in [0, 1], got {client_fraction}")
    if not (0.0 <= noise_level <= 1.0):
        raise ValueError(f"noise_level must lie in [0, 1], got {noise_level}")
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    num_noisy = int(round(client_fraction * dataset.num_clients))
    if num_noisy == 0:
        return []
    noisy_ids = sorted(
        int(c) for c in rng.choice(dataset.num_clients, size=num_noisy, replace=False)
    )
    for cid in noisy_ids:
        shard = dataset.clients[cid]
        n = shard.labels.shape[0]
        k = int(round(noise_level * n))
        if k == 0:
            continue
        idx = rng.choice(n, size=k, replace=False)
        shard.labels[idx] = rng.integers(0, num_classes, size=k)
    return noisy_ids


def build_federated_dataset(
    *,
    num_clients: int = 100,
    num_samples: int = 4000,
    scheme: str = "dirichlet",
    alpha: float = 0.5,
    shards_per_client: int = 2,
    seed: int = 0,
    noise_std: float = 0.4,
    low_quality_fraction: float = 0.0,
    low_quality_noise: float = 0.6,
    distinct_shards: int = 0,
) -> FederatedDataset:
    """Generate the synthetic-MNIST federated dataset used by all experiments.

    The default non-IID scheme is a Dirichlet label split with ``alpha = 0.5``
    (the paper only says data follows "non-IID dynamics"); the pathological
    2-shard split remains available via ``scheme="shard"``.  Setting
    ``low_quality_fraction > 0`` corrupts that fraction of clients with label
    noise, producing the low-quality contributors the discard strategy of
    Section 5.3 is designed to filter out.

    ``distinct_shards`` caps the number of *distinct* client shards: when
    ``0 < distinct_shards < num_clients`` only that many archetype shards are
    synthesised (with any label noise applied to the archetypes) and the
    population is filled by assigning them cyclically as array *views* — the
    only way a 100k–1M-client population fits in memory.  ``0`` (the default)
    keeps one distinct shard per client.
    """
    if not (0 <= int(distinct_shards) <= int(num_clients)):
        raise ValueError(
            f"distinct_shards must lie in [0, num_clients={num_clients}], "
            f"got {distinct_shards}"
        )
    shard_count = int(distinct_shards) or int(num_clients)
    dataset = load_synthetic_mnist(num_samples, seed=seed, noise_std=noise_std)
    fed = FederatedDataset.from_dataset(
        dataset,
        shard_count,
        new_rng(seed, "partition", scheme, shard_count),
        scheme=scheme,
        alpha=alpha,
        shards_per_client=shards_per_client,
    )
    if low_quality_fraction > 0.0:
        # Noise goes onto the archetypes, *before* replication, so every
        # replica of a low-quality shard is identically corrupted.
        inject_label_noise(
            fed,
            new_rng(seed, "label-noise", scheme, shard_count),
            client_fraction=low_quality_fraction,
            noise_level=low_quality_noise,
        )
    if shard_count < int(num_clients):
        fed = _replicate_shards(fed, int(num_clients))
    return fed


def _replicate_shards(fed: FederatedDataset, num_clients: int) -> FederatedDataset:
    """Grow ``fed`` to ``num_clients`` clients by cyclic shard sharing.

    Replica clients reference the archetype's arrays directly (no copies), so
    the dataset's memory footprint stays that of the archetypes.
    """
    archetypes = fed.clients
    clients = [
        ClientDataset(
            client_id=cid,
            images=archetypes[cid % len(archetypes)].images,
            labels=archetypes[cid % len(archetypes)].labels,
            val_images=archetypes[cid % len(archetypes)].val_images,
            val_labels=archetypes[cid % len(archetypes)].val_labels,
        )
        for cid in range(num_clients)
    ]
    return FederatedDataset(
        clients=clients,
        test_images=fed.test_images,
        test_labels=fed.test_labels,
        scheme=fed.scheme,
    )

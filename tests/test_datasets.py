"""Tests for the dataset substrate: synthesis, partitioning, federated containers, loaders."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.federated import (
    ClientDataset,
    FederatedDataset,
    build_federated_dataset,
    inject_label_noise,
    train_test_split,
)
from repro.datasets.loaders import BatchIterator, minibatches
from repro.datasets.partition import (
    dirichlet_partition,
    iid_partition,
    partition_dataset,
    shard_partition,
)
from repro.datasets.synthetic_mnist import IMAGE_PIXELS, SyntheticMNIST, load_synthetic_mnist
from repro.utils.rng import new_rng


class TestSyntheticMNIST:
    def test_shapes_and_ranges(self, tiny_dataset):
        assert tiny_dataset.images.shape == (400, IMAGE_PIXELS)
        assert tiny_dataset.labels.shape == (400,)
        assert tiny_dataset.images.min() >= 0.0
        assert tiny_dataset.images.max() <= 1.0
        assert tiny_dataset.labels.min() >= 0
        assert tiny_dataset.labels.max() <= 9

    def test_deterministic_given_seed(self):
        a = load_synthetic_mnist(50, seed=3)
        b = load_synthetic_mnist(50, seed=3)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = load_synthetic_mnist(50, seed=3)
        b = load_synthetic_mnist(50, seed=4)
        assert not np.allclose(a.images, b.images)

    def test_all_classes_present(self):
        ds = load_synthetic_mnist(2000, seed=0)
        assert set(np.unique(ds.labels)) == set(range(10))

    def test_classes_are_learnable(self):
        """A linear probe separates the synthetic classes well above chance."""
        from repro.nn.losses import SoftmaxCrossEntropyLoss
        from repro.nn.metrics import accuracy
        from repro.nn.models import LogisticRegressionModel
        from repro.nn.optim import SGD

        ds = load_synthetic_mnist(600, seed=1, noise_std=0.3)
        model = LogisticRegressionModel(IMAGE_PIXELS, 10, new_rng(0, "probe"))
        loss_fn = SoftmaxCrossEntropyLoss()
        opt = SGD(model.parameters(), lr=0.1)
        for _ in range(40):
            opt.zero_grad()
            loss_fn.forward(model.forward(ds.images), ds.labels)
            model.backward(loss_fn.backward())
            opt.step()
        assert accuracy(model.forward(ds.images), ds.labels) > 0.6

    def test_class_proportions_respected(self):
        props = np.zeros(10)
        props[3] = 1.0
        ds = load_synthetic_mnist(100, seed=0, class_proportions=props)
        assert np.all(ds.labels == 3)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            load_synthetic_mnist(0)
        with pytest.raises(ValueError):
            load_synthetic_mnist(10, noise_std=-1)
        with pytest.raises(ValueError):
            load_synthetic_mnist(10, deformation=2.0)
        with pytest.raises(ValueError):
            load_synthetic_mnist(10, class_proportions=np.ones(5))

    def test_subset(self, tiny_dataset):
        sub = tiny_dataset.subset(np.arange(10))
        assert len(sub) == 10
        np.testing.assert_array_equal(sub.labels, tiny_dataset.labels[:10])

    def test_class_counts(self, tiny_dataset):
        counts = tiny_dataset.class_counts()
        assert counts.sum() == len(tiny_dataset)
        assert counts.shape == (10,)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SyntheticMNIST(np.zeros((5, 10)), np.zeros(5))
        with pytest.raises(ValueError):
            SyntheticMNIST(np.zeros((5, IMAGE_PIXELS)), np.zeros(4))


class TestPartitioning:
    def _labels(self, n=300):
        return load_synthetic_mnist(n, seed=0).labels

    def test_iid_covers_all_indices(self):
        labels = self._labels()
        parts = iid_partition(labels, 7, new_rng(0, "iid"))
        combined = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(combined, np.arange(len(labels)))

    def test_iid_roughly_equal_sizes(self):
        parts = iid_partition(self._labels(), 6, new_rng(0, "iid"))
        sizes = [p.shape[0] for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_shard_covers_all_indices(self):
        labels = self._labels()
        parts = shard_partition(labels, 10, new_rng(0, "shard"), shards_per_client=2)
        combined = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(combined, np.arange(len(labels)))

    def test_shard_limits_classes_per_client(self):
        labels = self._labels(1000)
        parts = shard_partition(labels, 10, new_rng(0, "shard"), shards_per_client=2)
        for idx in parts:
            # 2 shards -> at most 4 distinct classes (each shard can straddle a boundary).
            assert len(np.unique(labels[idx])) <= 4

    def test_dirichlet_covers_all_indices(self):
        labels = self._labels()
        parts = dirichlet_partition(labels, 8, new_rng(0, "dir"), alpha=0.5)
        combined = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(combined, np.arange(len(labels)))

    def test_dirichlet_skew_increases_with_small_alpha(self):
        labels = self._labels(2000)

        def skew(alpha):
            parts = dirichlet_partition(labels, 10, new_rng(1, "dir", alpha), alpha=alpha)
            maxima = []
            for idx in parts:
                dist = np.bincount(labels[idx], minlength=10) / idx.shape[0]
                maxima.append(dist.max())
            return float(np.mean(maxima))

        assert skew(0.1) > skew(10.0)

    def test_min_samples_guarantee(self):
        labels = self._labels()
        parts = dirichlet_partition(
            labels, 10, new_rng(2, "dir"), alpha=0.3, min_samples_per_client=2
        )
        assert all(p.shape[0] >= 2 for p in parts)

    def test_unreachable_minimum_is_a_value_error(self):
        # 12 clients cannot all get 2 of 30 samples under a skewed split:
        # the inputs are at fault, so it is a ValueError, not a RuntimeError.
        labels = self._labels(30)
        with pytest.raises(ValueError, match="every client has >= 2 samples"):
            dirichlet_partition(
                labels, 12, new_rng(0, "dir"), alpha=0.5, min_samples_per_client=2
            )

    def test_partition_dataset_dispatch(self, tiny_dataset):
        for scheme in ("iid", "shard", "dirichlet"):
            parts = partition_dataset(tiny_dataset, 4, new_rng(0, scheme), scheme=scheme)
            assert len(parts) == 4
        with pytest.raises(ValueError):
            partition_dataset(tiny_dataset, 4, new_rng(0, "x"), scheme="bogus")

    def test_invalid_args(self):
        labels = self._labels(20)
        with pytest.raises(ValueError):
            iid_partition(labels, 0, new_rng(0, "a"))
        with pytest.raises(ValueError):
            iid_partition(labels, 21, new_rng(0, "a"))
        with pytest.raises(ValueError):
            shard_partition(labels, 5, new_rng(0, "a"), shards_per_client=0)
        with pytest.raises(ValueError):
            dirichlet_partition(labels, 5, new_rng(0, "a"), alpha=0.0)


class TestTrainTestSplit:
    def test_sizes(self, tiny_dataset):
        train, test = train_test_split(tiny_dataset, new_rng(0, "split"), test_fraction=0.25)
        assert len(train) + len(test) == len(tiny_dataset)
        assert len(test) == pytest.approx(0.25 * len(tiny_dataset), abs=1)

    def test_invalid_fraction(self, tiny_dataset):
        with pytest.raises(ValueError):
            train_test_split(tiny_dataset, new_rng(0, "split"), test_fraction=0.0)


class TestFederatedDataset:
    def test_construction(self, tiny_federated):
        assert tiny_federated.num_clients == 6
        assert tiny_federated.test_images.shape[0] > 0
        assert len(tiny_federated.partition_sizes) == 6

    def test_every_client_has_train_and_val(self, tiny_federated):
        for shard in tiny_federated.clients:
            assert shard.num_samples > 0
            assert shard.val_images.shape[0] > 0

    def test_client_lookup(self, tiny_federated):
        assert tiny_federated.client(0).client_id == 0
        with pytest.raises(IndexError):
            tiny_federated.client(99)

    def test_label_distribution_normalised(self, tiny_federated):
        dist = tiny_federated.client(0).label_distribution()
        assert dist.sum() == pytest.approx(1.0)

    def test_empty_shard_rejected(self):
        with pytest.raises(ValueError):
            ClientDataset(0, np.zeros((0, 4)), np.zeros(0), np.zeros((1, 4)), np.zeros(1))

    def test_default_dirichlet_population_builds_for_every_seed(self):
        # The scenario defaults: 100 clients, 1500 samples, Dirichlet split.
        # A one-sample client used to leave an empty training shard.
        for seed in range(30):
            fed = build_federated_dataset(
                num_clients=100, num_samples=1500, scheme="dirichlet", seed=seed
            )
            assert min(fed.partition_sizes) >= 1

    @pytest.mark.parametrize(
        "seed, expected",
        [
            (0, "851f5b705042a6ca10f0b7d3fc5e1d82837bf7ef96dedcb6d624fc80c4ecc059"),
            (1, "0878816e47b50dc2f2b4ddb567958c7562f8bf5df05a2ad4664b3d4fc9e3e26a"),
        ],
    )
    def test_default_dirichlet_partition_is_pinned(self, seed, expected):
        # Recorded while the minimum was one sample per client: seeds that
        # built then must keep their exact shards.
        fed = build_federated_dataset(
            num_clients=100, num_samples=1500, scheme="dirichlet", seed=seed
        )
        digest = hashlib.sha256()
        for shard in fed.clients:
            for array in (shard.images, shard.labels, shard.val_images, shard.val_labels):
                digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest() == expected

    def test_requires_clients(self):
        with pytest.raises(ValueError):
            FederatedDataset(clients=[], test_images=np.zeros((1, 4)), test_labels=np.zeros(1))

    def test_from_dataset_invalid_val_fraction(self, tiny_dataset):
        with pytest.raises(ValueError):
            FederatedDataset.from_dataset(
                tiny_dataset, 4, new_rng(0, "fed"), client_val_fraction=0.0
            )

    def test_inject_label_noise(self, tiny_dataset):
        fed = FederatedDataset.from_dataset(tiny_dataset, 6, new_rng(0, "fed"), scheme="iid")
        before = [shard.labels.copy() for shard in fed.clients]
        noisy = inject_label_noise(
            fed, new_rng(0, "noise"), client_fraction=0.5, noise_level=1.0
        )
        assert len(noisy) == 3
        for cid, shard in enumerate(fed.clients):
            changed = not np.array_equal(before[cid], shard.labels)
            assert changed == (cid in noisy) or not changed  # noisy clients may coincidentally keep some labels
        # At least the noisy clients should have many changed labels.
        for cid in noisy:
            frac_changed = np.mean(before[cid] != fed.clients[cid].labels)
            assert frac_changed > 0.5

    def test_inject_label_noise_zero_fraction(self, tiny_dataset):
        fed = FederatedDataset.from_dataset(tiny_dataset, 4, new_rng(0, "fed"), scheme="iid")
        assert inject_label_noise(fed, new_rng(0, "noise"), client_fraction=0.0) == []

    def test_inject_label_noise_validation(self, tiny_federated):
        with pytest.raises(ValueError):
            inject_label_noise(tiny_federated, new_rng(0, "x"), client_fraction=2.0)
        with pytest.raises(ValueError):
            inject_label_noise(tiny_federated, new_rng(0, "x"), noise_level=-0.1)


class TestLoaders:
    def test_minibatches_cover_everything(self):
        x = np.arange(25, dtype=float).reshape(25, 1)
        y = np.arange(25)
        batches = list(minibatches(x, y, 10))
        assert [b[0].shape[0] for b in batches] == [10, 10, 5]
        collected = np.sort(np.concatenate([b[1] for b in batches]))
        np.testing.assert_array_equal(collected, y)

    def test_minibatches_shuffle(self):
        x = np.arange(50, dtype=float).reshape(50, 1)
        y = np.arange(50)
        ordered = np.concatenate([b[1] for b in minibatches(x, y, 10)])
        shuffled = np.concatenate([b[1] for b in minibatches(x, y, 10, new_rng(0, "s"))])
        assert not np.array_equal(ordered, shuffled)
        np.testing.assert_array_equal(np.sort(shuffled), y)

    def test_minibatches_validation(self):
        with pytest.raises(ValueError):
            list(minibatches(np.zeros((3, 1)), np.zeros(4), 2))
        with pytest.raises(ValueError):
            list(minibatches(np.zeros((3, 1)), np.zeros(3), 0))

    def test_batch_iterator_properties(self):
        it = BatchIterator(np.zeros((23, 2)), np.zeros(23), batch_size=5)
        assert it.num_samples == 23
        assert it.batches_per_epoch == 5
        assert sum(b[0].shape[0] for b in it.epoch()) == 23

    def test_batch_iterator_reusable(self):
        it = BatchIterator(np.zeros((10, 2)), np.arange(10), batch_size=3, rng=new_rng(0, "b"))
        first = [b[1] for b in it]
        second = [b[1] for b in it]
        assert sum(len(b) for b in first) == sum(len(b) for b in second) == 10


@given(st.integers(2, 12), st.integers(30, 120))
@settings(max_examples=20, deadline=None)
def test_partition_property_no_overlap_full_cover(num_clients, num_samples):
    """Property: every partition scheme yields disjoint index sets covering the data."""
    labels = load_synthetic_mnist(num_samples, seed=0).labels
    for scheme in ("iid", "dirichlet"):
        parts = partition_dataset(
            SyntheticMNIST(np.zeros((num_samples, IMAGE_PIXELS)), labels),
            num_clients,
            new_rng(5, scheme, num_clients, num_samples),
            scheme=scheme,
        )
        combined = np.concatenate(parts)
        assert combined.shape[0] == num_samples
        assert len(np.unique(combined)) == num_samples

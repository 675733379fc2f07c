"""The federated dataset is built in one pass over one buffer, with the same bytes.

``load_synthetic_mnist`` fills its output in place, block by block, and
``FederatedDataset.from_dataset`` gathers every client array straight from the
flat dataset.  The references below compute the same bytes the plain way — the
whole-array expression, and the three-copy split (global train/test subset →
client shard → local train/val); the properties hold the library to them byte
for byte.  The references themselves peak at 5.0× their output (synthesis) and
5.0× what a ``fig4_sync``-shaped build retains; the tracemalloc tests bound the
library at 1.3× and 2.3×.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.federated import (
    ClientDataset,
    FederatedDataset,
    build_federated_dataset,
    inject_label_noise,
)
from repro.datasets.partition import partition_dataset
from repro.datasets.synthetic_mnist import (
    _BLOCK_ROWS,
    IMAGE_PIXELS,
    NUM_CLASSES,
    SyntheticMNIST,
    _class_prototype,
    load_synthetic_mnist,
)
from repro.utils.rng import new_rng

B = _BLOCK_ROWS
MiB = 2**20


def _reference_synthesis(num_samples, *, seed=0, noise_std=0.25):
    """The whole-array synthesis: every temporary the size of the dataset."""
    proto_rng = new_rng(seed, "synthetic-mnist", "prototypes")
    sample_rng = new_rng(seed, "synthetic-mnist", "samples")
    prototypes = np.stack([_class_prototype(label, proto_rng) for label in range(NUM_CLASSES)])
    proportions = np.full(NUM_CLASSES, 1.0 / NUM_CLASSES)
    labels = sample_rng.choice(NUM_CLASSES, size=num_samples, p=proportions).astype(np.int64)
    shifts = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]
    shifted_protos = np.stack(
        [
            np.stack([np.roll(np.roll(p, dy, axis=0), dx, axis=1) for p in prototypes])
            for (dy, dx) in shifts
        ]
    )
    shift_choice = sample_rng.integers(0, len(shifts), size=num_samples)
    mix = 0.6 * sample_rng.uniform(0.2, 0.8, size=(num_samples, 1, 1))
    images = (1.0 - mix) * prototypes[labels] + mix * shifted_protos[shift_choice, labels]
    contrast = sample_rng.uniform(0.7, 1.3, size=(num_samples, 1, 1))
    brightness = sample_rng.uniform(-0.05, 0.05, size=(num_samples, 1, 1))
    images = images * contrast + brightness
    images += sample_rng.normal(0.0, noise_std, size=images.shape)
    np.clip(images, 0.0, 1.0, out=images)
    return SyntheticMNIST(images.reshape(num_samples, IMAGE_PIXELS), labels)


def _reference_from_dataset(dataset, num_clients, rng, *, scheme):
    """The three-copy split: global subsets, then a shard copy, then the local split."""
    n = len(dataset)
    perm = rng.permutation(n)
    n_test = max(1, int(round(n * 0.15)))
    train_idx, test_idx = perm[n_test:], perm[:n_test]
    train = SyntheticMNIST(dataset.images[train_idx].copy(), dataset.labels[train_idx].copy())
    test = SyntheticMNIST(dataset.images[test_idx].copy(), dataset.labels[test_idx].copy())
    clients = []
    for cid, idx in enumerate(partition_dataset(train.labels, num_clients, rng, scheme=scheme)):
        shard_images, shard_labels = train.images[idx], train.labels[idx]
        m = idx.shape[0]
        n_val = max(1, int(round(m * 0.2)))
        if n_val >= m:
            n_val = max(1, m - 1)
        local = rng.permutation(m)
        clients.append(
            ClientDataset(
                client_id=cid,
                images=shard_images[local[n_val:]],
                labels=shard_labels[local[n_val:]],
                val_images=shard_images[local[:n_val]],
                val_labels=shard_labels[local[:n_val]],
            )
        )
    return FederatedDataset(clients, test.images, test.labels, scheme=scheme)


def _arrays(fed):
    yield fed.test_images
    yield fed.test_labels
    for shard in fed.clients:
        yield from (shard.images, shard.labels, shard.val_images, shard.val_labels)


def _assert_same_bytes(got, want):
    got, want = list(_arrays(got)), list(_arrays(want))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _outcome(build):
    """The built dataset, or the type of the error building it raised."""
    try:
        return build()
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@given(
    num_samples=st.sampled_from([1, B - 1, B, B + 1, 3 * B + 7]),
    seed=st.integers(0, 2**16),
    noise_std=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
)
@settings(max_examples=25, deadline=None)
def test_streamed_synthesis_equals_whole_array_reference(num_samples, seed, noise_std):
    kwargs = dict(seed=seed, noise_std=noise_std)
    got = load_synthetic_mnist(num_samples, **kwargs)
    want = _reference_synthesis(num_samples, **kwargs)
    assert got.images.tobytes() == want.images.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()


@given(
    scheme=st.sampled_from(["iid", "shard", "dirichlet"]),
    num_clients=st.integers(1, 12),
    num_samples=st.integers(20, 400),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_from_dataset_equals_three_copy_reference(scheme, num_clients, num_samples, seed):
    dataset = load_synthetic_mnist(num_samples, seed=seed)
    rng, reference_rng = new_rng(seed, "fed"), new_rng(seed, "fed")
    got = _outcome(lambda: FederatedDataset.from_dataset(dataset, num_clients, rng, scheme=scheme))
    want = _outcome(
        lambda: _reference_from_dataset(dataset, num_clients, reference_rng, scheme=scheme)
    )
    if isinstance(want, type):
        assert got is want
        return
    _assert_same_bytes(got, want)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@given(
    scheme=st.sampled_from(["iid", "shard", "dirichlet"]),
    seed=st.integers(0, 2**16),
    low_quality_fraction=st.sampled_from([0.0, 0.25, 0.5]),
    distinct_shards=st.sampled_from([0, 3, 8]),
)
@settings(max_examples=20, deadline=None)
def test_build_federated_dataset_equals_three_copy_reference(
    scheme, seed, low_quality_fraction, distinct_shards
):
    num_clients, num_samples, noise_std = 8, 600, 0.4
    got = build_federated_dataset(
        num_clients=num_clients, num_samples=num_samples, scheme=scheme, seed=seed,
        noise_std=noise_std, low_quality_fraction=low_quality_fraction,
        distinct_shards=distinct_shards,
    )
    shard_count = distinct_shards or num_clients
    want = _reference_from_dataset(
        _reference_synthesis(num_samples, seed=seed, noise_std=noise_std),
        shard_count,
        new_rng(seed, "partition", scheme, shard_count),
        scheme=scheme,
    )
    if low_quality_fraction > 0:
        inject_label_noise(
            want, new_rng(seed, "label-noise", scheme, shard_count),
            client_fraction=low_quality_fraction,
        )
    want.clients = [want.clients[cid % shard_count] for cid in range(num_clients)]
    _assert_same_bytes(got, want)


def _traced(build):
    """``(result, peak bytes)`` of ``build()`` under tracemalloc."""
    tracemalloc.start()
    try:
        result = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestSetupMemory:
    """Deterministic set-up memory bounds (numpy reports its buffers to tracemalloc)."""

    def test_synthesis_peak_is_bounded_by_its_output(self):
        dataset, peak = _traced(lambda: load_synthetic_mnist(10_000, seed=0, noise_std=0.4))
        output = dataset.images.nbytes + dataset.labels.nbytes
        assert peak <= 1.3 * output, f"peak {peak / MiB:.1f} MiB for {output / MiB:.1f} MiB"

    def test_fig4_sync_shaped_build_peak_is_bounded_by_what_it_retains(self):
        fed, peak = _traced(
            lambda: build_federated_dataset(
                num_clients=100, num_samples=10_000, scheme="shard", seed=0, noise_std=0.4
            )
        )
        retained = sum(a.nbytes for a in _arrays(fed))
        print(
            f"fig4_sync-shaped build: peak {peak / MiB:.1f} MiB, "
            f"retained {retained / MiB:.1f} MiB ({peak / retained:.2f}x)"
        )
        assert peak <= 2.3 * retained

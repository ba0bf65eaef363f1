"""Corpus generation and client partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtt.data import (
    Corpus,
    PartitionSpec,
    _even_sizes,
    _largest_remainder,
    generate_corpus,
    partition,
)


def test_corpus_shapes_and_balance():
    c = generate_corpus(3, 40, 10, 20, seed=0)
    assert c.tokens.shape == (120, 10)
    assert c.tokens.dtype == np.int64
    assert c.tokens.min() >= 0 and c.tokens.max() < 20
    counts = np.bincount(c.labels, minlength=3)
    assert counts.tolist() == [40, 40, 40]
    assert len(c) == 120


def test_corpus_is_seed_deterministic():
    a = generate_corpus(2, 30, 8, 16, seed=42)
    b = generate_corpus(2, 30, 8, 16, seed=42)
    assert np.array_equal(a.tokens, b.tokens)
    assert np.array_equal(a.labels, b.labels)
    c = generate_corpus(2, 30, 8, 16, seed=43)
    assert not np.array_equal(a.tokens, c.tokens)


def test_corpus_classes_are_statistically_distinct():
    c = generate_corpus(2, 200, 16, 12, seed=7)
    h0 = np.bincount(c.tokens[c.labels == 0].ravel(), minlength=12)
    h1 = np.bincount(c.tokens[c.labels == 1].ravel(), minlength=12)
    h0 = h0 / h0.sum()
    h1 = h1 / h1.sum()
    assert np.abs(h0 - h1).sum() > 0.1  # distinct unigram profiles


def test_corpus_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_corpus(1, 10, 8, 16, 0)
    with pytest.raises(ValueError):
        generate_corpus(2, 0, 8, 16, 0)
    with pytest.raises(ValueError):
        generate_corpus(2, 10, 8, 1, 0)


# --------------------------------------------------------------- helpers


def test_even_sizes_hand_cases():
    assert _even_sizes(103, 5) == [21, 21, 21, 20, 20]
    assert _even_sizes(9, 3) == [3, 3, 3]
    assert _even_sizes(5, 4) == [2, 1, 1, 1]


def test_largest_remainder_hand_cases():
    assert _largest_remainder(10, (0.5, 0.5)) == [5, 5]
    assert _largest_remainder(10, (1 / 3, 1 / 3, 1 / 3)) == [4, 3, 3]
    assert _largest_remainder(7, (0.6, 0.4)) == [4, 3]
    assert _largest_remainder(0, (0.3, 0.7)) == [0, 0]


@given(
    total=st.integers(min_value=0, max_value=500),
    raw=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=6),
)
@settings(max_examples=80, deadline=None)
def test_largest_remainder_sums_and_bounds(total, raw):
    weights = [x / sum(raw) for x in raw]
    counts = _largest_remainder(total, weights)
    assert sum(counts) == total
    assert all(c >= 0 for c in counts)
    # never off from the exact share by a full unit or more
    assert all(abs(c - total * w) < 1.0 for c, w in zip(counts, weights))


# -------------------------------------------------------------- partition


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(2, 105, 8, 16, seed=3)


def assert_disjoint_cover(shards, n):
    joined = np.concatenate(shards)
    assert len(joined) == n
    assert len(np.unique(joined)) == n


def test_iid_partition_covers_disjointly(corpus):
    shards = partition(corpus, PartitionSpec("iid", 4), seed=0)
    assert [len(s) for s in shards] == [53, 53, 52, 52]
    assert_disjoint_cover(shards, len(corpus))
    # labels roughly balanced per shard
    for s in shards:
        frac = corpus.labels[s].mean()
        assert 0.3 < frac < 0.7


def test_iid_partition_is_seeded(corpus):
    a = partition(corpus, PartitionSpec("iid", 4), seed=5)
    b = partition(corpus, PartitionSpec("iid", 4), seed=5)
    c = partition(corpus, PartitionSpec("iid", 4), seed=6)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_sorted_shards_are_label_skewed(corpus):
    shards = partition(corpus, PartitionSpec("sorted_shards", 4), seed=0)
    assert_disjoint_cover(shards, len(corpus))
    label_sets = [set(corpus.labels[s].tolist()) for s in shards]
    # contiguous label blocks: at most one shard straddles the class boundary
    assert sum(len(ls) > 1 for ls in label_sets) <= 1
    assert label_sets[0] == {0}
    assert label_sets[-1] == {1}


def test_proportions_partition_matches_requested_mix(corpus):
    spec = PartitionSpec(
        "proportions",
        3,
        proportions=((0.9, 0.1), (0.1, 0.9), (0.5, 0.5)),
    )
    shards = partition(corpus, spec, seed=1)
    assert_disjoint_cover(shards, len(corpus))
    sizes = _even_sizes(len(corpus), 3)
    for i, s in enumerate(shards):
        assert len(s) == sizes[i]
        got = np.bincount(corpus.labels[s], minlength=2)
        want = _largest_remainder(sizes[i], spec.proportions[i])
        assert got.tolist() == want


def test_proportions_partition_rejects_depleted_class(corpus):
    spec = PartitionSpec("proportions", 2, proportions=((1.0, 0.0), (1.0, 0.0)))
    with pytest.raises(ValueError, match="class 0"):
        partition(corpus, spec, seed=0)


def test_proportions_partition_rejects_wrong_class_count(corpus):
    spec = PartitionSpec("proportions", 2, proportions=((0.2, 0.3, 0.5), (0.5, 0.3, 0.2)))
    with pytest.raises(ValueError, match="classes"):
        partition(corpus, spec, seed=0)


@pytest.mark.parametrize(
    "rows",
    [
        ((0.0, 0.0, 1.0), (0.5, 0.5), (0.5, 0.5)),  # silently dropped class 2
        ((0.0, 0.0, 1.0), (0.25, 0.25, 0.25, 0.25), (1.0, 0.0, 0.0)),
    ],
)
def test_proportions_partition_checks_every_row(rows):
    corpus = generate_corpus(3, 20, 6, 8, seed=0)
    spec = PartitionSpec("proportions", 3, proportions=rows)
    with pytest.raises(ValueError, match="row 1 has .* for 3 classes"):
        partition(corpus, spec, seed=0)


def test_partition_spec_validation():
    with pytest.raises(ValueError, match="mode"):
        PartitionSpec("banana", 2)
    with pytest.raises(ValueError, match="matrix"):
        PartitionSpec("proportions", 2)
    with pytest.raises(ValueError, match="rows"):
        PartitionSpec("proportions", 3, proportions=((0.5, 0.5),))
    with pytest.raises(ValueError, match="sums"):
        PartitionSpec("proportions", 1, proportions=((0.5, 0.4),))
    with pytest.raises(ValueError, match="negative"):
        PartitionSpec("proportions", 1, proportions=((1.5, -0.5),))
    with pytest.raises(ValueError, match="only valid"):
        PartitionSpec("iid", 2, proportions=((0.5, 0.5), (0.5, 0.5)))


def test_partition_rejects_more_clients_than_rows():
    tiny = generate_corpus(2, 2, 4, 8, seed=0)
    with pytest.raises(ValueError, match="clients"):
        partition(tiny, PartitionSpec("iid", 5), seed=0)

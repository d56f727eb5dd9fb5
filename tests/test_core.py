"""Pool bookkeeping: construction, append, eviction, and the structural
invariants that must survive any operation sequence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvsim.core import (
    BudgetConfig,
    CachePool,
    InvariantError,
    append_decoding_entry,
    evict_decoding,
    new_pool,
)


class TestNewPool:
    def test_empty(self):
        pool = new_pool([])
        assert (pool.prefill_size, pool.decoding_size) == (0, 0)

    def test_identity(self):
        pool = new_pool([0, 1, 7])
        assert (pool.prefill_size, pool.decoding_size) == (3, 0)
        assert pool.prefill_entries.tolist() == [0, 1, 7]

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            new_pool([3, 1, 2])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            new_pool([1, 1, 2])

    def test_overlapping_sections_rejected(self):
        with pytest.raises(InvariantError, match="both pool sections"):
            CachePool(np.array([0, 1]), np.array([1, 2])).validate()


class TestAppend:
    def test_first_decode_token(self):
        pool = new_pool(range(5))
        pool = append_decoding_entry(pool, 5)
        assert (pool.prefill_size, pool.decoding_size) == (5, 1)

    def test_position_regression_rejected(self):
        pool = new_pool(range(5))
        for p in (5, 6, 7):
            pool = append_decoding_entry(pool, p)
        with pytest.raises(InvariantError, match="extend"):
            append_decoding_entry(pool, 4)

    def test_matches_naive_list_append(self):
        # oracle: maintain the decoding side as a plain python list
        pool = new_pool(range(5))
        naive = []
        for p in (5, 6, 7, 8):
            pool = append_decoding_entry(pool, p)
            naive.append(p)
        assert (pool.prefill_size, pool.decoding_size) == (5, 4)
        assert pool.decoding_entries.tolist() == naive


class TestEvict:
    def build(self, decode_positions=(10, 11, 12, 13)):
        pool = new_pool(range(10))
        for p in decode_positions:
            pool = append_decoding_entry(pool, p)
        return pool

    def test_keep_all_is_identity(self):
        pool = self.build()
        kept = evict_decoding(pool, np.ones(4, dtype=bool))
        assert kept.decoding_entries.tolist() == [10, 11, 12, 13]
        assert kept.prefill_entries is pool.prefill_entries

    def test_keep_empty(self):
        kept = evict_decoding(self.build(), np.zeros(4, dtype=bool))
        assert kept.decoding_size == 0
        assert kept.prefill_size == 10

    def test_set_filter(self):
        # oracle: plain set filtering over the decoding positions
        pool = self.build()
        keep = {10, 13}
        expected = [p for p in (10, 11, 12, 13) if p in keep]
        kept = evict_decoding(pool, np.isin(pool.decoding_entries, sorted(keep)))
        assert kept.decoding_entries.tolist() == expected

    def test_wrong_length_rejected(self):
        with pytest.raises(InvariantError, match=r"length 4 .* shape \(3,\)"):
            evict_decoding(self.build(), np.ones(3, dtype=bool))

    def test_wrong_dtype_rejected(self):
        # a list of positions to keep, the form a mask replaced
        with pytest.raises(InvariantError, match=r"length 4 .* int64 of shape \(4,\)"):
            evict_decoding(self.build(), [10, 11, 12, 13])


class TestBudgetConfig:
    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="beta1"):
            BudgetConfig(beta1=-1)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="alpha1"):
            BudgetConfig(alpha1=1.5)

    def test_budget_sums(self):
        b = BudgetConfig(alpha1=3, alpha2=4, beta1=5, beta2=6, max_decode_steps=100)
        assert b.prefill_budget == 7
        assert b.decoding_budget == 11
        assert b.total_budget == 18


@given(
    m=st.integers(1, 8),
    plan=st.lists(st.tuples(st.booleans(), st.integers(0, 2**16)), max_size=14),
)
@settings(max_examples=120)
def test_random_operation_sequences_preserve_invariants(m, plan):
    """Disjointness, ordering, and prompt-side constancy hold after any
    append/evict interleaving."""
    pool = new_pool(range(m))
    initial_prefill = pool.prefill_entries.copy()
    initial_fp = pool.prefill_fingerprint()
    next_pos = m
    for do_append, salt in plan:
        if do_append or pool.decoding_size == 0:
            pool = append_decoding_entry(pool, next_pos)
            next_pos += 1
        else:
            keep = (pool.decoding_entries * 2654435761 + salt) % 3 != 0
            pool = evict_decoding(pool, keep)
        pool.validate()
        assert pool.prefill_entries.dtype == pool.decoding_entries.dtype == np.int64
        assert np.array_equal(pool.prefill_entries, initial_prefill)
        assert pool.prefill_fingerprint() == initial_fp


@given(
    keep_mask=st.lists(st.booleans(), min_size=1, max_size=20),
)
@settings(max_examples=80)
def test_evict_preserves_survivor_order(keep_mask):
    pool = new_pool([])
    positions = list(range(len(keep_mask)))
    for p in positions:
        pool = append_decoding_entry(pool, p)
    keep = [p for p, k in zip(positions, keep_mask) if k]
    kept = evict_decoding(pool, np.array(keep_mask))
    assert kept.decoding_entries.tolist() == keep
    assert kept.prefill_entries is pool.prefill_entries

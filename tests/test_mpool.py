"""Unit tests for the Mpool buffer cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import DRXError
from repro.drx.storage import MemoryByteStore
from tests.support.pools import byte_pool


def make(pool_pages=4, page_size=8):
    store = MemoryByteStore()
    store.write(0, bytes(range(page_size * 16)))
    return store, byte_pool(store, page_size, max_pages=pool_pages)


class TestBasics:
    def test_get_faults_in(self):
        store, pool = make()
        page = pool.get(2)
        assert bytes(page) == bytes(range(16, 24))
        pool.put(2)
        assert pool.stats.misses == 1 and pool.stats.hits == 0

    def test_hit_on_second_access(self):
        _store, pool = make()
        pool.get(1)
        pool.put(1)
        pool.get(1)
        pool.put(1)
        assert pool.stats.hits == 1 and pool.stats.misses == 1

    def test_page_beyond_eof_is_zeros(self):
        _store, pool = make()
        page = pool.get(1000)
        assert bytes(page) == b"\x00" * 8
        pool.put(1000)

    def test_bad_arguments(self):
        store = MemoryByteStore()
        with pytest.raises(DRXError):
            byte_pool(store, 0)
        with pytest.raises(DRXError):
            byte_pool(store, 8, max_pages=0)
        pool = byte_pool(store, 8)
        with pytest.raises(DRXError):
            pool.get(-1)

    def test_unbalanced_put_rejected(self):
        _store, pool = make()
        with pytest.raises(DRXError):
            pool.put(3)


class TestEviction:
    def test_lru_eviction(self):
        _store, pool = make(pool_pages=2)
        for p in (0, 1, 2):
            pool.get(p)
            pool.put(p)
        assert pool.stats.evictions == 1
        assert pool.cached_pages == 2
        # page 0 was the LRU victim: re-access misses
        pool.get(0)
        pool.put(0)
        assert pool.stats.misses == 4

    def test_pinned_pages_survive(self):
        _store, pool = make(pool_pages=2)
        pool.get(0)                  # pinned
        pool.get(1)
        pool.put(1)
        pool.get(2)                  # must evict page 1, not pinned 0
        pool.put(2)
        assert 0 in pool._pages
        pool.put(0)

    def test_all_pinned_exhausts_pool(self):
        _store, pool = make(pool_pages=2)
        pool.get(0)
        pool.get(1)
        with pytest.raises(DRXError):
            pool.get(2)
        pool.put(0)
        pool.put(1)

    def test_dirty_eviction_writes_back(self):
        store, pool = make(pool_pages=1)
        page = pool.get(0)
        page[:] = 0xAB
        pool.put(0, dirty=True)
        pool.get(1)                  # evicts dirty page 0
        pool.put(1)
        assert pool.stats.writebacks == 1
        assert store.read(0, 8) == b"\xab" * 8


class TestFlush:
    def test_flush_writes_dirty_only(self):
        store, pool = make()
        a = pool.get(0)
        a[:] = 1
        pool.put(0, dirty=True)
        pool.get(1)
        pool.put(1)                  # clean
        pool.flush()
        assert pool.stats.writebacks == 1
        assert store.read(0, 8) == b"\x01" * 8
        # flush keeps pages cached
        pool.get(0)
        pool.put(0)
        assert pool.stats.hits >= 1

    def test_invalidate_drops_unpinned(self):
        store, pool = make()
        p = pool.get(0)
        p[:] = 9
        pool.put(0, dirty=True)
        pool.get(1)                  # keep pinned
        pool.invalidate()
        assert store.read(0, 8) == b"\x09" * 8   # dirty flushed
        assert pool.cached_pages == 1            # only pinned page 1
        pool.put(1)

    def test_pin_counting(self):
        _store, pool = make()
        pool.get(5)
        pool.get(5)
        assert pool.pinned_pages == 1
        pool.put(5)
        assert pool.pinned_pages == 1
        pool.put(5)
        assert pool.pinned_pages == 0

    def test_hit_ratio(self):
        _store, pool = make()
        assert pool.stats.hit_ratio == 0.0
        pool.get(0); pool.put(0)
        pool.get(0); pool.put(0)
        assert pool.stats.hit_ratio == 0.5

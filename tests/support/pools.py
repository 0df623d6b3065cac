"""A buffer pool over a bare byte store, for the tests that drive the
Mpool directly."""

from repro.drx import ChunkStore, Mpool


def byte_pool(store, page_size, **pool):
    """An :class:`Mpool` paging ``page_size``-byte chunks of ``store``,
    chunk ``q`` at ``q * page_size`` (a plain array's chunk store)."""
    return Mpool(ChunkStore(store, page_size), **pool)

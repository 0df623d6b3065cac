"""Transparent per-chunk compression: codecs, slot allocation, round
trips, byte-identity of the uncompressed layout, integrity (scrub / CRC
arbitration / chaos), and compaction.

The big sweeps honour ``DRX_CODEC`` (the CI codec matrix) through
:func:`repro.drx.codec.default_codec_name`; the always-on tests pin
``codec="zlib"`` so every run exercises the compressed path.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.core.errors import DRXFileError, DRXFormatError, PFSError
from repro.core.executor import IOExecutor
from repro.core.metadata import DRXMeta
from repro.drx import (
    DRXFile,
    DRXSingleFile,
    FaultPlan,
    SlotTable,
    get_codec,
)
from repro.drx.codec import (
    TAG_CODED,
    TAG_RAW,
    DeltaZlibCodec,
    ZlibCodec,
    default_codec_name,
)
from repro.drx.resilience import ChecksumGuard, FaultInjector, chunk_crc
from repro.pfs import ParallelFileSystem
from repro.workloads import pattern_array

#: Codec for env-parameterized scenarios ("none" exercises the plain
#: direct-placement path under the same workload).
ENV_CODEC = default_codec_name()

SMOOTH = np.cumsum(np.linspace(0.0, 1.0, 4096)).reshape(64, 64)
#: Rows of constant value: deflate-friendly, representative of the
#: sparse/banded scientific datasets compression pays off for.
COMPRESSIBLE = np.repeat(np.arange(64.0), 64).reshape(64, 64)


def _payload_cases():
    rng = np.random.default_rng(7)
    return [
        ("zeros", bytes(4096)),
        ("smooth-f8", SMOOTH.tobytes()),
        ("int32-ramp", np.arange(1024, dtype=np.int32).tobytes()),
        ("complex128", (SMOOTH[:16, :16] * (1 + 2j)).astype(
            np.complex128).tobytes()),
        ("random", rng.bytes(4096)),          # incompressible
        ("odd-size", rng.bytes(1003)),        # non-word-multiple tail
    ]


# ---------------------------------------------------------------------------
# codec layer
# ---------------------------------------------------------------------------

class TestCodecs:
    @pytest.mark.parametrize("name", ["zlib", "zlib:1", "zlib:9",
                                      "delta+zlib", "delta+zlib:1"])
    @pytest.mark.parametrize("label,raw", _payload_cases())
    def test_frame_round_trip_is_exact(self, name, label, raw):
        codec = get_codec(name, word_nbytes=8)
        payload = codec.frame_encode(raw)
        assert codec.frame_decode(payload, len(raw)) == raw
        assert len(payload) <= len(raw) + 1   # worst case: 1 tag byte

    def test_incompressible_takes_raw_passthrough(self):
        rng = np.random.default_rng(1)
        raw = rng.bytes(2048)
        payload = ZlibCodec().frame_encode(raw)
        assert payload[0] == TAG_RAW
        assert payload[1:] == raw

    def test_compressible_takes_coded_tag(self):
        payload = ZlibCodec().frame_encode(bytes(2048))
        assert payload[0] == TAG_CODED
        assert len(payload) < 64

    def test_delta_helps_on_smooth_integers(self):
        raw = np.arange(0, 1 << 20, 37, dtype=np.int64).tobytes()
        plain = len(ZlibCodec().frame_encode(raw))
        delta = len(DeltaZlibCodec(word_nbytes=8).frame_encode(raw))
        assert delta < plain

    @pytest.mark.parametrize("word", [1, 2, 4, 8])
    def test_delta_word_widths_round_trip(self, word):
        rng = np.random.default_rng(word)
        raw = rng.bytes(512 * word)
        codec = DeltaZlibCodec(word_nbytes=word)
        assert codec.frame_decode(codec.frame_encode(raw), len(raw)) == raw

    def test_registry_names(self):
        assert get_codec("").name == "none"
        assert get_codec("none").name == "none"
        assert get_codec("zlib").name == "zlib"
        assert get_codec("zlib:3").name == "zlib:3"
        assert get_codec("delta").name == "delta+zlib"
        assert get_codec("ZLIB").name == "zlib"   # case-insensitive

    def test_unknown_codec_rejected(self):
        with pytest.raises(DRXFileError):
            get_codec("lz77")
        with pytest.raises(DRXFileError):
            get_codec("zlib:0")
        with pytest.raises(DRXFileError):
            get_codec("zlib:ten")

    def test_frame_decode_rejects_garbage(self):
        codec = ZlibCodec()
        with pytest.raises(DRXFormatError):
            codec.frame_decode(b"", 16)
        with pytest.raises(DRXFormatError):
            codec.frame_decode(b"\x07abc", 16)          # unknown tag
        with pytest.raises(DRXFormatError):
            codec.frame_decode(b"\x00abc", 16)          # short raw body
        with pytest.raises(DRXFormatError):
            codec.frame_decode(b"\x01not-zlib", 16)     # corrupt body

    def test_default_codec_name_reads_env(self, monkeypatch):
        monkeypatch.delenv("DRX_CODEC", raising=False)
        assert default_codec_name() == "none"
        monkeypatch.setenv("DRX_CODEC", "zlib:4")
        assert default_codec_name() == "zlib:4"


# ---------------------------------------------------------------------------
# slot-allocation table
# ---------------------------------------------------------------------------

class TestSlotTable:
    def test_append_allocation(self):
        t = SlotTable()
        s0 = t.allocate(0, 100)
        s1 = t.allocate(1, 50)
        assert (s0.offset, s0.length) == (0, 100)
        assert (s1.offset, s1.length) == (100, 50)
        assert t.end == 150 and t.stored_bytes == 150

    def test_in_place_overwrite_within_epoch(self):
        t = SlotTable()
        t.allocate(0, 100)
        s = t.allocate(0, 80)                 # shrink: reuse the extent
        assert (s.offset, s.length, s.capacity) == (0, 80, 100)
        s = t.allocate(0, 100)                # grow back into the slack
        assert (s.offset, s.length) == (0, 100)
        assert t.end == 100                   # never re-appended

    def test_committed_slot_is_copy_on_write(self):
        t = SlotTable()
        t.allocate(0, 100)
        t.mark_committed()
        s = t.allocate(0, 60)                 # fits, but extent committed
        assert s.offset == 100                # ...so it must move
        assert t.free_bytes == 0              # old extent only quarantined
        t.mark_committed()
        assert t.free_bytes == 100            # now recyclable

    def test_best_fit_reuse(self):
        t = SlotTable()
        for i, n in enumerate([100, 30, 200]):
            t.allocate(i, n)
        t.mark_committed()
        t.remove(0)                           # hole [0, 100)
        t.remove(2)                           # hole [130, 330)
        t.mark_committed()
        s = t.allocate(9, 25)
        assert s.offset == 0                  # smallest hole that fits
        s = t.allocate(10, 150)
        assert s.offset == 130                # only the big hole fits

    def test_free_extents_coalesce(self):
        t = SlotTable()
        for i, n in enumerate([64, 64, 64]):
            t.allocate(i, n)
        t.mark_committed()
        for i in range(3):
            t.remove(i)
        t.mark_committed()
        assert t.free_bytes == 192
        assert t.allocate(5, 192).offset == 0  # one merged hole

    def test_reserve_routes_appends_around(self):
        t = SlotTable()
        t.allocate(0, 50)
        t.reserve(60, 100)                    # fence [60, 160)
        s = t.allocate(1, 40)
        assert s.offset == 160                # would overlap: skip past
        assert t.end == 200

    def test_serialize_round_trip(self):
        t = SlotTable()
        for i, n in enumerate([100, 30, 200]):
            t.allocate(i, n)
        t.mark_committed()
        t.remove(1)
        t.reserve(500, 64)
        doc = t.serialize()
        assert doc == json.loads(json.dumps(doc))   # JSON-clean
        u = SlotTable.deserialize(doc)
        assert u.end == t.end and u.reserved == (500, 64)
        for i in (0, 2):
            assert u.get(i) == t.get(i)
        # serialize() folds pending frees in: the restored table may
        # reuse the quarantined extent (the commit it documents landed)
        assert u.free_bytes == 30

    def test_serialized_view_is_post_commit(self):
        t = SlotTable()
        t.allocate(0, 100)
        t.mark_committed()
        t.allocate(0, 100)                    # COW: old extent pending
        doc = t.serialize()
        assert doc["free"] == [[0, 100]]      # folded in, not hidden

    def test_deserialize_rejects_garbage(self):
        with pytest.raises(DRXFormatError):
            SlotTable.deserialize({"slots": "nope"})
        with pytest.raises(DRXFormatError):
            SlotTable.deserialize({})

    def test_compaction_requires_committed_table(self):
        t = SlotTable()
        t.allocate(0, 10)
        with pytest.raises(DRXFormatError):
            t.plan_compaction()

    def test_compaction_moves_tail_into_holes(self):
        t = SlotTable()
        for i, n in enumerate([100, 100, 100]):
            t.allocate(i, n)
        t.mark_committed()
        t.remove(0)
        t.mark_committed()                    # hole [0, 100)
        plan = t.plan_compaction()
        assert [(i, off) for i, _s, off in plan] == [(2, 0)]
        t.apply_move(2, 0)
        t.mark_committed()
        assert t.trim_end() == 200

    def test_slot_validation(self):
        with pytest.raises(DRXFormatError):
            SlotTable.deserialize(
                {"slots": [[0, 0, 10, 5]], "free": [], "end": 10})


# ---------------------------------------------------------------------------
# compressed arrays end to end
# ---------------------------------------------------------------------------

CODECS = ["zlib", "zlib:1", "delta+zlib"]


class TestCompressedArrays:
    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("dtype", ["double", "int", "complex"])
    def test_round_trip_bit_identical(self, tmp_path, codec, dtype):
        data = (SMOOTH[:32, :24] * 100).astype(np.dtype(
            {"double": "f8", "int": "i8", "complex": "c16"}[dtype]))
        with DRXFile.create(tmp_path / "a", (32, 24), (8, 8), dtype,
                            codec=codec) as a:
            a.write((0, 0), data)
        with DRXFile.open(tmp_path / "a") as b:
            assert b.codec == get_codec(codec, data.dtype.itemsize).name
            assert np.array_equal(b.read(), data)
            f_read = b.read(order="F")
            assert f_read.flags.f_contiguous
            assert np.array_equal(f_read, data)

    def test_compressible_data_shrinks_the_file(self, tmp_path):
        with DRXFile.create(tmp_path / "a", (64, 64), (8, 8),
                            codec="zlib") as a:
            a.write((0, 0), COMPRESSIBLE)
        physical = (tmp_path / "a.xta").stat().st_size
        logical = 64 * 64 * 8
        assert physical < logical / 2
        with DRXFile.open(tmp_path / "a") as b:
            assert b.data_extent_nbytes() == physical

    def test_extend_and_sparse_chunks_read_zero(self, tmp_path):
        with DRXFile.create(tmp_path / "e", (8, 8), (4, 4),
                            codec="zlib") as a:
            a.write((0, 0), pattern_array((8, 8)))
            a.extend(0, 8)
            assert np.array_equal(a.read((8, 0), (16, 8)),
                                  np.zeros((8, 8)))
            a.write((8, 0), pattern_array((8, 8)) + 1)
        with DRXFile.open(tmp_path / "e") as b:
            assert b.shape == (16, 8)
            assert np.array_equal(b.read((0, 0), (8, 8)),
                                  pattern_array((8, 8)))
            assert np.array_equal(b.read((8, 0), (16, 8)),
                                  pattern_array((8, 8)) + 1)

    def test_overwrite_and_eviction_recompress(self, tmp_path):
        """A pool too small for the working set forces eviction
        write-backs (recompression) mid-workload."""
        rng = np.random.default_rng(3)
        data = np.cumsum(rng.standard_normal((32, 32)), axis=0)
        with DRXFile.create(tmp_path / "m", (32, 32), (4, 4),
                            codec="zlib", cache_pages=3) as a:
            a.write((0, 0), data)
            # sub-chunk updates: read-modify-write through the pool,
            # touching more chunks than it can hold
            for i in range(0, 32, 4):
                a.write((i + 1, 1), data[i + 1:i + 3, 1:3] * 2)
            a.flush()
            assert a.cache_stats.writebacks > 0
        with DRXFile.open(tmp_path / "m") as b:
            expect = data.copy()
            for i in range(0, 32, 4):
                expect[i + 1:i + 3, 1:3] = data[i + 1:i + 3, 1:3] * 2
            assert np.array_equal(b.read(), expect)

    def test_streaming_read_and_write(self, tmp_path):
        """Requests larger than the pool stream through the adapter."""
        data = np.add.outer(np.arange(48.0), np.arange(48.0))
        with DRXFile.create(tmp_path / "s", (48, 48), (4, 4),
                            codec="zlib", cache_pages=2) as a:
            a.write((0, 0), data)             # 144 chunks >> 2 pages
        with DRXFile.open(tmp_path / "s", cache_pages=2) as b:
            assert np.array_equal(b.read(), data)

    def test_codec_stats_account_bytes_and_time(self, tmp_path):
        with DRXFile.create(tmp_path / "c", (32, 32), (8, 8),
                            codec="zlib") as a:
            a.write((0, 0), COMPRESSIBLE[:32, :32])
            a.flush()
            st = a.codec_stats
            assert st.encoded_chunks == 16
            assert st.raw_bytes == 32 * 32 * 8
            assert 0 < st.stored_bytes < st.raw_bytes
            assert st.ratio > 1.0
            assert st.compressed_bytes == st.stored_bytes
            assert st.codec_time >= 0.0
        with DRXFile.open(tmp_path / "c") as b:
            b.read()
            assert b.codec_stats.decoded_chunks == 16

    def test_bytes_moved_counts_compressed_bytes(self, tmp_path):
        """The shared store counters see what physically moved — the
        point of the layer is that this shrinks."""
        with DRXFile.create(tmp_path / "b", (64, 64), (8, 8),
                            codec="zlib") as a:
            a.write((0, 0), COMPRESSIBLE)
            a.flush()
            moved = a._data.stats.bytes_written
            assert 0 < moved < 64 * 64 * 8 / 2

    def test_plain_array_stats_surface_is_none(self, tmp_path):
        with DRXFile.create(tmp_path / "p", (8, 8), (4, 4)) as a:
            assert a.codec == "none"
            assert a.codec_stats is None
            assert a.data_extent_nbytes() == a.meta.data_nbytes

    def test_in_memory_compressed_array(self):
        a = DRXFile.create(None, (16, 16), (4, 4), codec="zlib")
        a.write((0, 0), pattern_array((16, 16)))
        a.extend(1, 4)
        assert np.array_equal(a.read((0, 0), (16, 16)),
                              pattern_array((16, 16)))
        a.close()

    def test_env_codec_round_trip(self, tmp_path):
        """The CI matrix leg: same workload under ``DRX_CODEC``."""
        data = pattern_array((24, 24))
        with DRXFile.create(tmp_path / "env", (24, 24), (6, 6),
                            codec=ENV_CODEC, checksums=True) as a:
            a.write((0, 0), data)
        with DRXFile.open(tmp_path / "env") as b:
            assert np.array_equal(b.read(), data)
            assert not b.scrub().corrupt


# ---------------------------------------------------------------------------
# format compatibility: codec=none byte identity, v1/v2 still readable
# ---------------------------------------------------------------------------

class TestFormatCompatibility:
    def test_codec_none_keeps_direct_placement_bit_identical(self, tmp_path):
        """An uncompressed array's payload file must be byte-identical
        to the direct-placement layout (chunk q at q * chunk_nbytes) and
        its sidecar must be the exact version-2 document."""
        data = pattern_array((8, 12))
        with DRXFile.create(tmp_path / "n", (8, 12), (4, 4)) as a:
            a.write((0, 0), data)
        xta = (tmp_path / "n.xta").read_bytes()
        with DRXFile.open(tmp_path / "n") as b:
            expect = bytearray()
            for q in range(b.num_chunks):
                ci = b.meta.eci.index(q)
                lo = tuple(c * s for c, s in zip(ci, (4, 4)))
                hi = tuple(min(l + s, n) for l, s, n in
                           zip(lo, (4, 4), (8, 12)))
                chunk = np.zeros((4, 4))
                chunk[:hi[0] - lo[0], :hi[1] - lo[1]] = \
                    data[lo[0]:hi[0], lo[1]:hi[1]]
                expect += chunk.tobytes()
        assert xta == bytes(expect)
        doc = json.loads((tmp_path / "n.xmd").read_bytes()[4:])
        assert doc["format_version"] == 2
        assert "codec" not in doc and "chunk_slots" not in doc

    def test_version_2_documents_still_open(self, tmp_path):
        with DRXFile.create(tmp_path / "v2", (4, 4), (2, 2)) as a:
            a.write((0, 0), pattern_array((4, 4)))
        raw = (tmp_path / "v2.xmd").read_bytes()
        doc = json.loads(raw[4:])
        assert doc["format_version"] == 2
        meta = DRXMeta.from_bytes(raw)
        assert meta.codec == "none" and meta.chunk_slots is None

    def test_version_1_documents_still_open(self, tmp_path):
        with DRXFile.create(tmp_path / "v1", (4, 4), (2, 2)) as a:
            a.write((0, 0), pattern_array((4, 4)))
        raw = (tmp_path / "v1.xmd").read_bytes()
        doc = json.loads(raw[4:])
        doc["format_version"] = 1
        doc.pop("chunk_crcs", None)
        (tmp_path / "v1.xmd").write_bytes(
            b"DRXM" + json.dumps(doc, sort_keys=True).encode())
        with DRXFile.open(tmp_path / "v1") as b:
            assert b.codec == "none"
            assert np.array_equal(b.read(), pattern_array((4, 4)))

    def test_compressed_sidecar_is_version_3(self, tmp_path):
        with DRXFile.create(tmp_path / "z", (4, 4), (2, 2),
                            codec="zlib") as a:
            a.write((0, 0), pattern_array((4, 4)))
        doc = json.loads((tmp_path / "z.xmd").read_bytes()[4:])
        assert doc["format_version"] == 3
        assert doc["codec"] == "zlib"
        assert len(doc["chunk_slots"]["slots"]) == 4

    def test_future_version_rejected(self):
        blob = b"DRXM" + json.dumps(
            {"format_version": 99}).encode()
        with pytest.raises(DRXFormatError):
            DRXMeta.from_bytes(blob)


def _set(entry: int, field: int, value):
    """Overwrite one field of one ``[chunk, offset, length, capacity]``
    slot entry."""
    def corrupt(doc: dict) -> None:
        doc["slots"][entry][field] = value(doc) if callable(value) \
            else value
    return corrupt


#: corruptions of a 4-chunk zlib array's slot table (128-byte chunks);
#: each leaves a document that parses
HOSTILE_SLOTS = {
    "negative-offset": _set(0, 1, -8),
    "negative-length": _set(0, 2, -1),
    "oversized-slot": _set(0, 3, 100_000),
    "past-the-end": _set(3, 3, lambda d: d["end"] - d["slots"][3][1] + 1),
    "chunk-out-of-range": _set(0, 0, 10 ** 6),
    "negative-chunk": _set(0, 0, -1),
    "shared-extent": _set(1, 1, lambda d: d["slots"][0][1]),
}


class TestHostileSlotTable:
    """The slot table comes from disk: an impossible one is refused at
    open, not met as a raw OS error or silently wrong data at read."""

    @pytest.mark.parametrize("corrupt", HOSTILE_SLOTS,
                             ids=list(HOSTILE_SLOTS))
    def test_refused_at_open(self, tmp_path, corrupt):
        data = pattern_array((8, 8))
        with DRXFile.create(tmp_path / "h", (8, 8), (4, 4),
                            codec="zlib") as a:
            a.write((0, 0), data)
            assert a.meta.chunk_nbytes == 128
        xmd = tmp_path / "h.xmd"
        meta = DRXMeta.from_bytes(xmd.read_bytes())
        meta.chunk_slots["slots"].sort()
        HOSTILE_SLOTS[corrupt](meta.chunk_slots)
        xmd.write_bytes(meta.to_bytes())
        with pytest.raises(DRXFormatError):
            DRXFile.open(tmp_path / "h").close()


# ---------------------------------------------------------------------------
# integrity: scrub, CRC arbitration, chaos
# ---------------------------------------------------------------------------

def make_fs(replication=2, nservers=3):
    return ParallelFileSystem(nservers=nservers, stripe_size=512,
                              replication=replication)


class TestCompressedIntegrity:
    def test_scrub_detects_compressed_corruption(self, tmp_path):
        with DRXFile.create(tmp_path / "s", (8, 8), (4, 4),
                            codec="zlib", checksums=True) as a:
            a.write((0, 0), pattern_array((8, 8)))
        with DRXFile.open(tmp_path / "s") as b:
            slot = b._store.table.get(2)
        raw = bytearray((tmp_path / "s.xta").read_bytes())
        raw[slot.offset + slot.length // 2] ^= 0xFF
        (tmp_path / "s.xta").write_bytes(bytes(raw))
        with DRXFile.open(tmp_path / "s") as b:
            report = b.scrub()
        assert report.corrupt == [2]
        assert report.checked == 4

    def test_scrub_clean_compressed_array(self, tmp_path):
        with DRXFile.create(tmp_path / "ok", (8, 8), (4, 4),
                            codec="delta+zlib", checksums=True) as a:
            a.write((0, 0), pattern_array((8, 8)))
            report = a.scrub()
        assert report.ok and report.checked == 4

    def test_crc_covers_the_compressed_payload(self, tmp_path):
        """The recorded CRC must match the framed payload at the slot —
        the contract replication arbitration relies on."""
        with DRXFile.create(tmp_path / "c", (4, 4), (2, 2),
                            codec="zlib", checksums=True) as a:
            a.write((0, 0), pattern_array((4, 4)))
            a.flush()
            for q in range(a.num_chunks):
                slot = a._store.table.get(q)
                payload = a._data.read(slot.offset, slot.length)
                assert chunk_crc(payload) == a.meta.chunk_crcs[q]

    def test_arbitration_heals_corrupt_replica(self):
        """Corrupting the primary copy of a compressed slot must be
        detected by the adapter's guard and healed from the replica."""
        fs = make_fs(replication=2)
        data = pattern_array((8, 8))
        a = DRXFile.create_pfs(fs, "arb", (8, 8), (4, 4),
                               codec="zlib", checksums=True)
        a.write((0, 0), data)
        a.close()
        # stripe 0 of arb.xta holds the first slots; wreck its primary
        fs.servers[0].corrupt("arb.xta", 0, b"\xff" * 64)
        with DRXFile.open_pfs(fs, "arb") as b:
            assert np.array_equal(b.read(), data)      # healed in flight
        with DRXFile.open_pfs(fs, "arb") as b:
            assert not b.scrub().corrupt               # repair persisted

    def test_streamed_read_arbitrates_on_the_caller(self):
        """Codec-tier tasks verify a streamed window's CRCs; a mismatch
        is arbitrated once, on the caller's thread (replica I/O)."""
        fs = make_fs(replication=2)
        data = np.repeat(np.arange(16.0), 16).reshape(16, 16)
        a = DRXFile.create_pfs(fs, "win", (16, 16), (4, 4),
                               codec="zlib", checksums=True)
        a.write((0, 0), data)
        a.close()
        b = DRXFile.open_pfs(fs, "win", cache_pages=2)
        codec_ex = IOExecutor(2, name="codec")
        b._store._executor = codec_ex
        try:
            slot = b._store.table.get(5)
            assert slot.offset + slot.length <= 512      # stripe 0
            fs.servers[0].corrupt("win.xta", slot.offset,
                                  b"\xff" * slot.length)
            inner = b._data
            seen = []

            def spy(offset, length, _real=inner.read_alternates):
                seen.append(threading.get_ident())
                return _real(offset, length)

            inner.read_alternates = spy
            assert np.array_equal(b.read(), data)   # 16 chunks > 2 pages
            guard = b._store.guard
            assert (guard.checked, guard.failures, guard.arbitrated) \
                == (16, 1, 1)
            assert seen == [threading.get_ident()]
            assert codec_ex.stats.submitted > 0
        finally:
            b.close()
            codec_ex.shutdown()

    def test_degraded_read_without_checksums(self):
        fs = make_fs(replication=2)
        data = pattern_array((8, 8))
        a = DRXFile.create_pfs(fs, "deg", (8, 8), (4, 4), codec="zlib")
        a.write((0, 0), data)
        a.close()
        fs.kill_server(1)
        with DRXFile.open_pfs(fs, "deg") as b:
            assert np.array_equal(b.read(), data)


class TestFailedWriteKeepsOldBytes:
    """A store write that fails leaves the chunks it was replacing as
    they were: the old bytes read back, plain or compressed, with or
    without checksums.  A compressed store allocates new slots before
    it writes, so the failure must revert those allocations."""

    @staticmethod
    def _array(codec, checksums, plan, flush=True):
        """A (64, 64) array of (8, 8) chunks over a fault-injected data
        store, holding ``SMOOTH`` (streamed in: 64 chunks > 2 pages)."""
        def wrap(store, role):
            return FaultInjector(store, plan) if role == "data" else store
        a = DRXFile.create(None, (64, 64), (8, 8), cache_pages=2,
                           codec=codec, checksums=checksums,
                           store_wrapper=wrap)
        a.write((0, 0), SMOOTH)
        if flush:
            a.flush()
        return a

    @pytest.mark.parametrize("codec", ["none", "zlib"])
    @pytest.mark.parametrize("checksums", [False, True],
                             ids=["nocrc", "crc"])
    @pytest.mark.parametrize("epoch", ["committed", "same-epoch"])
    def test_streamed_write(self, codec, checksums, epoch):
        plan = FaultPlan()
        a = self._array(codec, checksums, plan, flush=epoch == "committed")
        plan.fail("writev", times=1)
        with pytest.raises(PFSError):
            a.write((0, 0), SMOOTH * 3.0 + 1.0)
        assert np.array_equal(a.read(), SMOOTH)        # streamed read
        a.write((0, 0), SMOOTH * 3.0 + 1.0)            # the fault is spent
        a.flush()
        assert np.array_equal(a.read(), SMOOTH * 3.0 + 1.0)
        assert a.scrub().corrupt == []
        a.close()

    @pytest.mark.parametrize("codec", ["none", "zlib"])
    @pytest.mark.parametrize("checksums", [False, True],
                             ids=["nocrc", "crc"])
    def test_pool_writeback(self, codec, checksums):
        plan = FaultPlan()
        a = self._array(codec, checksums, plan)
        a.write((0, 0), SMOOTH[:16, :8] + 1.0)   # two dirty pages: 0, 8
        plan.fail("writev", times=1)
        with pytest.raises(PFSError):
            a.flush()
        # the store under the pool still holds (and verifies) the old
        # chunks
        for q, rows in ((0, slice(0, 8)), (8, slice(8, 16))):
            old = np.ascontiguousarray(SMOOTH[rows, :8]).tobytes()
            assert bytes(a._store.read([q])[0]) == old, q
        a.flush()                                 # the pages stayed dirty
        for q, rows in ((0, slice(0, 8)), (8, slice(8, 16))):
            new = np.ascontiguousarray(SMOOTH[rows, :8] + 1.0).tobytes()
            assert bytes(a._store.read([q])[0]) == new, q
        assert a.scrub().corrupt == []
        a.close()

    def test_revert_restores_each_allocation_kind(self):
        t = SlotTable()
        t.allocate(0, 100)
        t.allocate(1, 50)
        t.mark_committed()
        t.allocate(2, 30)                 # epoch-local
        before = t.serialize(), t.free_bytes, t.end
        # copy-on-write of a committed slot
        prior = t.get(0)
        t.revert(0, prior, t.allocate(0, 60))
        # an epoch-local slot overwritten in place, and outgrown
        prior = t.get(2)
        t.revert(2, prior, t.allocate(2, 20))
        t.revert(2, prior, t.allocate(2, 90))
        # a chunk never written before
        t.revert(3, None, t.allocate(3, 40))
        assert (t.serialize(), t.free_bytes, t.end) == before
        assert 3 not in t
        t.mark_committed()
        assert t.free_bytes == 0          # no extent leaked or lost


class TestCompressedChaos:
    """Server-kill chaos over a compressed replicated array: degraded
    reads stay bit-identical, fan-out writes lose nothing, and online
    rebuild restores redundancy — all over *compressed* payloads."""

    READ_SITES = ["server.kill.readv.begin", "server.kill.readv.batch"]
    WRITE_SITES = ["server.kill.writev.begin", "server.kill.writev.batch"]

    @staticmethod
    def _build(fs, data, codec="zlib"):
        a = DRXFile.create_pfs(fs, "chaos", (16, 16), (4, 4),
                               codec=codec, checksums=True)
        a.write((0, 0), data)
        a.close()

    @pytest.mark.parametrize("victim", range(3))
    @pytest.mark.parametrize("site", READ_SITES)
    def test_kill_during_read(self, site, victim):
        data = pattern_array((16, 16))
        fs = make_fs()
        self._build(fs, data)
        plan = FaultPlan().kill_server(fs, victim, site)
        with plan:
            with DRXFile.open_pfs(fs, "chaos") as b:
                assert np.array_equal(b.read(), data)
        assert not fs.servers[victim].alive, f"hook never fired at {site}"
        fs.revive_server(victim)
        fs.rebuild_server(victim)
        assert fs.open("chaos.xta").verify_replicas() == []
        with DRXFile.open_pfs(fs, "chaos") as b:
            assert np.array_equal(b.read(), data)
            assert not b.scrub().corrupt

    @pytest.mark.parametrize("victim", range(3))
    @pytest.mark.parametrize("site", WRITE_SITES)
    def test_kill_during_write(self, site, victim):
        data = pattern_array((16, 16))
        data2 = data * 3.0 + 1.0
        fs = make_fs()
        self._build(fs, data)
        plan = FaultPlan().kill_server(fs, victim, site)
        with plan:
            with DRXFile.open_pfs(fs, "chaos", mode="r+") as b:
                b.write((0, 0), data2)
        assert not fs.servers[victim].alive, f"hook never fired at {site}"
        with DRXFile.open_pfs(fs, "chaos") as b:
            assert np.array_equal(b.read(), data2)
        fs.revive_server(victim)
        fs.rebuild_server(victim)
        assert fs.open("chaos.xta").verify_replicas() == []
        with DRXFile.open_pfs(fs, "chaos") as b:
            assert np.array_equal(b.read(), data2)
            assert not b.scrub().corrupt

    def test_env_codec_chaos(self):
        """One chaos pass under the CI codec matrix's ``DRX_CODEC``."""
        data = pattern_array((16, 16))
        fs = make_fs()
        self._build(fs, data, codec=ENV_CODEC)
        plan = FaultPlan().kill_server(fs, 0, "server.kill.readv.batch")
        with plan:
            with DRXFile.open_pfs(fs, "chaos") as b:
                assert np.array_equal(b.read(), data)
        fs.revive_server(0)
        fs.rebuild_server(0)
        with DRXFile.open_pfs(fs, "chaos") as b:
            assert not b.scrub().corrupt


# ---------------------------------------------------------------------------
# compaction
# ---------------------------------------------------------------------------

class TestCompaction:
    def test_compact_reclaims_overwrite_churn(self, tmp_path):
        rng = np.random.default_rng(11)
        data = np.cumsum(rng.standard_normal((32, 32)), axis=1)
        with DRXFile.create(tmp_path / "k", (32, 32), (4, 4),
                            codec="zlib", checksums=True) as a:
            for round_ in range(4):
                a.write((0, 0), data * (round_ + 1))
                a.flush()                     # each commit strands holes
            grown = a.data_extent_nbytes()
            result = a.compact()
            assert result["end"] <= grown
            assert result["end"] == a.data_extent_nbytes()
            assert (tmp_path / "k.xta").stat().st_size == result["end"]
            assert np.array_equal(a.read(), data * 4)
        with DRXFile.open(tmp_path / "k") as b:
            assert np.array_equal(b.read(), data * 4)
            assert not b.scrub().corrupt

    def test_compact_is_noop_on_plain_array(self, tmp_path):
        with DRXFile.create(tmp_path / "p", (8, 8), (4, 4)) as a:
            a.write((0, 0), pattern_array((8, 8)))
            assert a.compact() == {"moves": 0, "end": a.meta.data_nbytes,
                                   "reclaimed": 0}

    def test_compact_respects_move_budget(self, tmp_path):
        with DRXFile.create(tmp_path / "b", (32, 32), (4, 4),
                            codec="zlib") as a:
            data = pattern_array((32, 32))
            a.write((0, 0), data)
            a.flush()
            a.write((0, 0), data + 1)         # COW every chunk
            a.flush()
            result = a.compact(max_moves=3)
            assert result["moves"] <= 3
            assert np.array_equal(a.read(), data + 1)


# ---------------------------------------------------------------------------
# single-file container
# ---------------------------------------------------------------------------

class TestSingleFileCompressed:
    def test_round_trip(self, tmp_path):
        data = SMOOTH[:24, :24]
        with DRXSingleFile.create(tmp_path / "s", (24, 24), (6, 6),
                                  codec="zlib", checksums=True) as a:
            a.write((0, 0), data)
        with DRXSingleFile.open(tmp_path / "s") as b:
            assert b.codec == "zlib"
            assert np.array_equal(b.read(), data)
            assert not b.scrub().corrupt

    def test_tail_resident_meta_survives_growth(self, tmp_path):
        """A tiny reserve forces the meta blob into the chunk region;
        the slot table's reserved span must keep appends clear of it
        across many extend/write cycles."""
        a = DRXSingleFile.create(tmp_path / "t", (4, 4), (2, 2),
                                 header_reserve=200, codec="zlib",
                                 checksums=True)
        a.write((0, 0), pattern_array((4, 4)))
        for i in range(8):
            a.extend(i % 2, 2)
            lo = (0, 0)
            a.write(lo, pattern_array((4, 4)) + i)
            a.flush()
        final = pattern_array((4, 4)) + 7
        shape = a.shape
        a.close()
        with DRXSingleFile.open(tmp_path / "t") as b:
            assert b.shape == shape
            assert np.array_equal(b.read((0, 0), (4, 4)), final)
            assert not b.scrub().corrupt

    def test_single_file_compact(self, tmp_path):
        data = pattern_array((16, 16))
        with DRXSingleFile.create(tmp_path / "k", (16, 16), (4, 4),
                                  codec="zlib", checksums=True) as a:
            for i in range(3):
                a.write((0, 0), data + i)
                a.flush()
            result = a.compact()
            assert result["reclaimed"] >= 0
            assert np.array_equal(a.read(), data + 2)
        with DRXSingleFile.open(tmp_path / "k") as b:
            assert np.array_equal(b.read(), data + 2)
            assert not b.scrub().corrupt

    def test_conversions_preserve_codec(self, tmp_path):
        data = pattern_array((8, 8))
        with DRXFile.create(tmp_path / "pair", (8, 8), (4, 4),
                            codec="zlib") as pair:
            pair.write((0, 0), data)
            single = DRXSingleFile.from_pair(pair, tmp_path / "single")
        assert single.codec == "zlib"
        assert np.array_equal(single.read(), data)
        back = single.to_pair(tmp_path / "back")
        assert back.codec == "zlib"
        assert np.array_equal(back.read(), data)
        back.close()
        single.close()

    def test_conversion_can_change_codec(self, tmp_path):
        data = pattern_array((8, 8))
        with DRXFile.create(tmp_path / "p2", (8, 8), (4, 4)) as pair:
            pair.write((0, 0), data)
            single = DRXSingleFile.from_pair(pair, tmp_path / "s2",
                                             codec="delta+zlib")
        assert single.codec == "delta+zlib"
        assert np.array_equal(single.read(), data)
        plain = single.to_pair(tmp_path / "plain2", codec="none")
        assert plain.codec == "none"
        assert np.array_equal(plain.read(), data)
        plain.close()
        single.close()

    def test_uncompressed_single_file_unchanged(self, tmp_path):
        """codec="none" single files keep the version-2 container and
        the direct-placement chunk region."""
        data = pattern_array((8, 8))
        with DRXSingleFile.create(tmp_path / "u", (8, 8), (4, 4)) as a:
            a.write((0, 0), data)
        raw = (tmp_path / "u.drx").read_bytes()
        assert raw.startswith(b"DRXSF\x02")
        with DRXSingleFile.open(tmp_path / "u") as b:
            assert b.codec == "none"
            assert np.array_equal(b.read(), data)


# ---------------------------------------------------------------------------
# guard plumbing sanity
# ---------------------------------------------------------------------------

class TestGuardPlumbing:
    @pytest.mark.parametrize("codec", ["none", "zlib"])
    def test_one_guard_on_the_chunk_store(self, tmp_path, codec):
        """Checksums live in one place whatever the codec: the chunk
        store's guard, sharing the meta-data's CRC table."""
        with DRXFile.create(tmp_path / "g", (8, 8), (4, 4), codec=codec,
                            checksums=True) as a:
            guards = [v for obj in (a, a._pool, a._store, a._data)
                      for v in vars(obj).values()
                      if isinstance(v, ChecksumGuard)]
            assert guards == [a._store.guard]
            assert a._store.guard.crcs is a.meta.chunk_crcs
            assert a.checksums_enabled

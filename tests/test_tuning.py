"""Tests for the chunk/stripe tuning advisor (paper §V, experiment E5)."""

from __future__ import annotations

from math import prod

import numpy as np
import pytest

from repro.core.errors import DRXExtendError
from repro.tuning import chunk_stripe_report, suggest_chunk_shape


class TestSuggest:
    def test_fits_one_stripe(self):
        chunk = suggest_chunk_shape((4096, 4096), stripe_size=64 * 1024)
        report = chunk_stripe_report(chunk, 64 * 1024)
        assert report["fits_one_stripe"]
        # and uses a decent share of it
        assert report["ratio"] > 0.2

    def test_growth_dims_stay_small(self):
        chunk = suggest_chunk_shape((100000, 512, 512),
                                    stripe_size=64 * 1024,
                                    growth_dims=[0])
        assert chunk[0] <= 4
        assert prod(chunk) * 8 <= 64 * 1024

    def test_last_dim_prioritized(self):
        """Row-major contiguity: the last dimension gets the extent."""
        chunk = suggest_chunk_shape((10000, 10000), stripe_size=8 * 1024)
        assert chunk[1] >= chunk[0]

    def test_small_array_capped_by_bounds(self):
        chunk = suggest_chunk_shape((4, 6), stripe_size=1 << 20)
        assert chunk == (4, 6)     # whole array fits a stripe easily

    def test_tiny_stripe(self):
        chunk = suggest_chunk_shape((100, 100), stripe_size=64)
        assert prod(chunk) * 8 <= 64

    def test_dtype_item_size_respected(self):
        c_double = suggest_chunk_shape((10**6,), 4096, dtype="double")
        c_complex = suggest_chunk_shape((10**6,), 4096, dtype="complex")
        assert prod(c_complex) <= prod(c_double)

    def test_validation(self):
        with pytest.raises(DRXExtendError):
            suggest_chunk_shape((10,), 0)
        with pytest.raises(DRXExtendError):
            suggest_chunk_shape((10,), 4096, fill=0)
        with pytest.raises(DRXExtendError):
            suggest_chunk_shape((10,), 4096, growth_dims=[5])
        with pytest.raises(DRXExtendError):
            suggest_chunk_shape((), 4096)


class TestReport:
    def test_aligned(self):
        r = chunk_stripe_report((64, 64), 64 * 1024)
        assert r["chunk_nbytes"] == 32 * 1024
        assert r["fits_one_stripe"]
        assert r["worst_case_requests"] >= 1

    def test_oversized(self):
        r = chunk_stripe_report((128, 128), 64 * 1024)
        assert not r["fits_one_stripe"]
        assert r["ratio"] == 2.0
        assert r["worst_case_requests"] >= 2

    def test_matches_e5_measurement(self):
        """The advisor's worst case bounds what E5 actually measures."""
        from repro.core.metadata import DRXMeta
        from repro.drx import PFSByteStore
        from repro.drx.drxfile import DRXFile
        from repro.pfs import ParallelFileSystem
        for edge in (32, 90, 181):
            fs = ParallelFileSystem(nservers=4, stripe_size=64 * 1024)
            meta = DRXMeta.create((256, 256), (edge, edge))
            a = DRXFile(meta, PFSByteStore(fs.create("t.xta")), None,
                        writable=True, cache_pages=2)
            a.write((0, 0), np.zeros((256, 256)))
            a.flush()
            a._pool.invalidate()
            fs.reset_stats()
            a.read((0, 0), (edge, edge))      # one chunk
            measured = fs.total_stats().read_requests
            bound = chunk_stripe_report((edge, edge),
                                        64 * 1024)["worst_case_requests"]
            assert measured <= bound + 1, (edge, measured, bound)
            a.close()


class TestSuggestAlignment:
    def test_pow2_snap_divides_stripe(self):
        """Budget-limited extents snap to powers of two so the chunk
        payload divides the stripe (one server request per chunk)."""
        chunk = suggest_chunk_shape((10000, 10000), stripe_size=64 * 1024)
        nbytes = prod(chunk) * 8
        assert (64 * 1024) % nbytes == 0
        rep = chunk_stripe_report(chunk, 64 * 1024)
        assert rep["worst_case_requests"] == 1

    def test_bounds_capped_extent_not_snapped(self):
        """Matching the array bound beats alignment: a 96-wide array
        keeps its exact bound in the contiguity dimension."""
        chunk = suggest_chunk_shape((96, 96), stripe_size=64 * 1024)
        assert chunk[1] == 96

    def test_one_element_dims(self):
        chunk = suggest_chunk_shape((1, 1, 100000), stripe_size=4096)
        assert chunk[0] == chunk[1] == 1
        assert prod(chunk) * 8 <= 4096

    def test_never_exceeds_stripe(self):
        for stripe in (64, 100, 4096, 64 * 1024):
            chunk = suggest_chunk_shape((512, 512), stripe_size=stripe)
            assert prod(chunk) * 8 <= stripe


class TestReportAlignment:
    def test_divides_stripe_one_request(self):
        # 32 B chunk, 64 KiB stripe: periodic placement never straddles
        r = chunk_stripe_report((2, 2), 64 * 1024)
        assert r["worst_case_requests"] == 1

    def test_multiple_of_stripe_exact(self):
        # 128 KiB chunk on a 64 KiB stripe: exactly two per chunk
        r = chunk_stripe_report((128, 128), 64 * 1024)
        assert r["worst_case_requests"] == 2

    def test_straddling_pays_extra(self):
        # 24 KiB chunk on a 64 KiB stripe: some offsets straddle
        r = chunk_stripe_report((48, 64), 64 * 1024)
        assert r["worst_case_requests"] == 2

    def test_validation(self):
        with pytest.raises(DRXExtendError):
            chunk_stripe_report((8, 8), 0)
        with pytest.raises(DRXExtendError):
            chunk_stripe_report((8, 0), 4096)
        with pytest.raises(DRXExtendError):
            chunk_stripe_report((), 4096)


class TestWorkload:
    def test_geometry(self):
        from repro.tuning import Workload
        w = Workload(bounds=(256, 256), chunk_shape=(32, 32),
                     request_shape=(64, 64), requests=16)
        assert w.itemsize == 8
        assert w.effective_request == (64, 64)
        assert w.chunk_counts() == (2, 2)
        assert w.chunks_per_request() == 4
        # row-major F*: the last chunk dimension coalesces into runs
        assert w.runs_per_request() == 2

    def test_request_clipped_to_bounds(self):
        from repro.tuning import Workload
        w = Workload(bounds=(32, 32), chunk_shape=(8, 8),
                     request_shape=(64, 64))
        assert w.effective_request == (32, 32)

    def test_whole_array_default(self):
        from repro.tuning import Workload
        w = Workload(bounds=(128, 64), chunk_shape=(16, 16))
        assert w.effective_request == (128, 64)
        assert w.runs_per_request(chunk_shape=(16, 16)) == 8


class TestAdvise:
    def _workload(self, **kw):
        from repro.tuning import Workload
        base = dict(bounds=(256, 256), chunk_shape=(8, 8),
                    request_shape=(64, 64), requests=16,
                    stripe_size=64 * 1024, nservers=4)
        base.update(kw)
        return Workload(**base)

    def test_every_knob_has_one_choice(self):
        from repro.tuning import advise
        advice = advise(self._workload())
        for knob in ("chunk_shape", "stripe_size", "codec"):
            chosen = [c for c in advice.candidates
                      if c.knob == knob and c.chosen]
            current = [c for c in advice.candidates
                       if c.knob == knob and c.current]
            assert len(chosen) == 1, knob
            assert len(current) == 1, knob
        settings = advice.settings()
        assert set(settings) == {"chunk_shape", "stripe_size", "codec"}
        # only knobs are swept
        assert {c.knob for c in advice.candidates} == set(settings)

    def test_small_chunks_rejected_for_tile_scans(self):
        """8x8 chunks cost 8 runs per 64x64 request; the advisor must
        pick something with fewer runs."""
        from repro.tuning import advise
        w = self._workload()
        advice = advise(w)
        chosen = advice.chosen("chunk_shape")
        assert w.runs_per_request(chosen) < w.runs_per_request((8, 8))

    def test_codec_off_without_observed_ratio(self):
        from repro.tuning import advise
        assert advise(self._workload()).chosen("codec") == "none"

    def test_codec_on_with_strong_ratio(self):
        from types import SimpleNamespace
        from repro.tuning import Observed, advise
        obs = Observed(codec=SimpleNamespace(
            raw_bytes=400 << 20, stored_bytes=100 << 20,
            encode_time=1.0, decode_time=1.0))
        assert obs.codec_ratio() == pytest.approx(4.0)
        advice = advise(self._workload(), observed=obs,
                        current={"codec": "zlib"})
        assert advice.chosen("codec") == "zlib"

    def test_codec_off_when_codec_cpu_dominates(self):
        from types import SimpleNamespace
        from repro.tuning import Observed, advise
        # 1.1x ratio at a glacial 50 KB/s codec: transfers saved never
        # repay the encode/decode seconds
        obs = Observed(codec=SimpleNamespace(
            raw_bytes=110 << 20, stored_bytes=100 << 20,
            encode_time=1100.0, decode_time=1100.0))
        advice = advise(self._workload(), observed=obs,
                        current={"codec": "zlib"})
        assert advice.chosen("codec") == "none"

    def test_pass_priced_as_io_plus_cpu(self):
        """The pool is demand-paged and reads nothing ahead: a pass of
        requests costs its servers' I/O one after another plus its CPU,
        no more, whatever order the requests come in, so the workload
        takes no order input."""
        from repro.pfs.costmodel import DEFAULT_COST_MODEL
        from repro.tuning import advise
        from repro.tuning.advisor import _pass_cpu, _pass_io_parallel

        with pytest.raises(TypeError):
            self._workload(sequential=False)
        w = self._workload()
        cost = [c.predicted_cost for c in advise(w).candidates
                if c.knob == "chunk_shape" and c.current][0]
        want = (_pass_io_parallel(w, DEFAULT_COST_MODEL) * w.nservers
                + _pass_cpu(w))
        assert cost == pytest.approx(want, rel=1e-12)

    def test_explain_and_to_dict(self):
        from repro.tuning import advise
        advice = advise(self._workload())
        text = advice.explain()
        assert "chunk_shape" in text and "predicted" in text
        assert "*" in text               # a chosen marker rendered
        doc = advice.to_dict()
        assert doc["workload"]["bounds"] == [256, 256]
        assert doc["candidates"]
        assert all({"knob", "value", "predicted_cost_s"} <= set(c)
                   for c in doc["candidates"])

    def test_observed_cost_attached_to_current(self):
        from repro.drx.storage import StoreStats
        from repro.tuning import Observed, advise
        st = StoreStats()
        st.note_readv(16)
        st.note_read(64 * 1024)
        obs = Observed(store=st)
        advice = advise(self._workload(), observed=obs)
        flagged = [c for c in advice.candidates
                   if c.observed_cost is not None]
        assert flagged and all(c.current for c in flagged)


class TestAdviseFile:
    def test_live_handle(self):
        from repro.drx.drxfile import DRXFile
        from repro.tuning import advise_file
        with DRXFile.create(None, (64, 64), (8, 8)) as a:
            a.write((0, 0), np.ones((64, 64)))
            a.read_all()
            advice = advise_file(a)
            assert advice.workload.bounds == (64, 64)
            assert advice.settings()
            # observed counters were collected off the handle
            assert any(c.observed_cost is not None
                       for c in advice.candidates)

    def test_pfs_geometry_discovered(self):
        from repro.drx.drxfile import DRXFile
        from repro.pfs import ParallelFileSystem
        from repro.tuning import advise_file
        fs = ParallelFileSystem(nservers=8, stripe_size=128 * 1024)
        a = DRXFile.create_pfs(fs, "t", (64, 64), (8, 8))
        try:
            advice = advise_file(a, with_observed=False)
            assert advice.workload.stripe_size == 128 * 1024
            assert advice.workload.nservers == 8
        finally:
            a.close()


class TestCLI:
    def test_report_json(self, capsys):
        import json as _json
        from repro.tuning.__main__ import main
        assert main(["report", "--bounds", "256,256", "--chunk", "8,8",
                     "--request", "64,64", "--requests", "16",
                     "--json"]) == 0
        doc = _json.loads(capsys.readouterr().out)
        assert doc["settings"]["chunk_shape"]

    def test_report_table(self, capsys):
        from repro.tuning.__main__ import main
        assert main(["report", "--bounds", "256,256",
                     "--chunk", "32,32"]) == 0
        out = capsys.readouterr().out
        assert "chunk_shape" in out and "stripe_size" in out

    def test_suggest(self, capsys):
        from repro.tuning.__main__ import main
        assert main(["suggest", "--bounds", "4096,4096",
                     "--stripe", "65536"]) == 0
        dims = capsys.readouterr().out.strip().split("x")
        assert prod(int(d) for d in dims) * 8 <= 65536

    def test_growth_dim_zero_accepted(self, capsys):
        from repro.tuning.__main__ import main
        assert main(["suggest", "--bounds", "4096,4096",
                     "--growth-dims", "0"]) == 0
        dims = [int(d) for d in capsys.readouterr().out.strip().split("x")]
        assert dims[0] <= 4

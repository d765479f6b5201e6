"""Tests for MPI-style distributed formation and streaming formation."""

import io

import numpy as np
import pytest

from repro.core.distributed import MPIFormation
from repro.core.equations import iter_pair_blocks
from repro.core.streaming import (
    BinaryFileSink,
    CountingSink,
    MemoryWatermarkSink,
    TeeSink,
    stream_formation,
    stream_to_file,
)
from repro.core.strategies import SingleThread
from repro.io.equations_io import load_blocks_binary, write_block_binary
from repro.mea.wetlab import quick_device_data


@pytest.fixture(scope="module")
def device6():
    return quick_device_data(6, seed=31)


@pytest.fixture(scope="module")
def baseline6(device6):
    _, z = device6
    return SingleThread().run(z)


class TestMPIFormation:
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_matches_single_thread(self, device6, baseline6, size):
        _, z = device6
        report = MPIFormation(size).run(z)
        assert report.terms_formed == baseline6.terms_formed
        assert report.checksum == pytest.approx(baseline6.checksum)
        assert report.num_workers == size
        assert report.per_worker_terms.sum() == report.terms_formed

    def test_part_files_reassemble(self, device6, baseline6, tmp_path):
        _, z = device6
        report = MPIFormation(2).run(z, output_dir=tmp_path)
        assert len(report.part_files) == 2
        blocks = []
        for f in report.part_files:
            blocks.extend(load_blocks_binary(f))
        assert sum(b.checksum() for b in blocks) == pytest.approx(
            baseline6.checksum
        )
        assert report.bytes_written == sum(
            len(open(f, "rb").read()) for f in report.part_files
        )

    def test_validation(self, device6):
        _, z = device6
        with pytest.raises(ValueError):
            MPIFormation(0)
        with pytest.raises(ValueError):
            MPIFormation(2).run(np.ones((2, 3)))
        with pytest.raises(ValueError):
            MPIFormation(2).run(z, fmt="text")


class TestStreaming:
    def test_counting_sink_matches_baseline(self, device6, baseline6):
        _, z = device6
        sink = CountingSink()
        report = stream_formation(z, sink)
        assert sink.terms == baseline6.terms_formed
        assert sink.checksum == pytest.approx(baseline6.checksum)
        assert sink.equations == 2 * 6**3
        assert report.pairs_formed == 36
        assert report.terms_per_second() > 0

    def test_stream_to_file_roundtrip(self, device6, baseline6, tmp_path):
        _, z = device6
        path = tmp_path / "stream.bin"
        report, nbytes = stream_to_file(z, path)
        assert nbytes == path.stat().st_size
        blocks = load_blocks_binary(path)
        assert sum(b.num_terms for b in blocks) == baseline6.terms_formed
        # Byte-identical to the per-pair reference former, row-major.
        oracle = io.BytesIO()
        for block in iter_pair_blocks(z):
            write_block_binary(block, oracle)
        assert path.read_bytes() == oracle.getvalue()

    def test_tee_sink(self, device6, tmp_path):
        _, z = device6
        counting = CountingSink()
        with open(tmp_path / "t.bin", "wb") as fh:
            tee = TeeSink(sinks=(counting, BinaryFileSink(fh=fh)))
            stream_formation(z, tee)
        assert counting.terms == 2 * 6**4

    def test_memory_bounded_at_scale(self, tmp_path):
        """Streaming a 50x50 system (12.5M terms) must not grow RSS by
        more than a small constant — the whole point of the mode."""
        from repro.instrument.memory import rss_bytes

        _, z = quick_device_data(50, seed=32)
        before = rss_bytes()
        watermark = MemoryWatermarkSink(every=100)
        with open(tmp_path / "big.bin", "wb") as fh:
            tee = TeeSink(sinks=(BinaryFileSink(fh=fh), watermark))
            report = stream_formation(z, tee)
        assert report.terms_formed == 2 * 50**4
        growth = watermark.peak - before
        # Full in-memory system would be ~205 MB; streaming stays
        # within a 64 MB envelope (page cache noise included).
        assert growth < 64 * 2**20

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            stream_formation(np.ones((2, 3)), CountingSink())

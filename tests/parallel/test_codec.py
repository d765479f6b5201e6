"""Property tests for the one frame codec, under both serializers.

The reader sees the stream through a socket stub whose ``recv`` hands
out arbitrary chunk sizes, so every property holds however the kernel
happens to split the bytes.  One end-to-end case drives a corrupt
length prefix through the elastic pool's channel.
"""

import os
import signal
import stat
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import codec
from repro.parallel.elastic import run_elastic_formation
from repro.parallel.pymp import fork_available

SERIALIZERS = pytest.mark.parametrize(
    "serializer", [codec.JSON, codec.PICKLE], ids=["json", "pickle"]
)

# Values both serializers round-trip to an equal object (JSON has no
# tuples and no NaN that compares equal).
payloads = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False)
    | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
chunk_sizes = st.lists(st.integers(min_value=1, max_value=64), max_size=200)


class ChunkedSocket:
    """A recv-only socket stub: ``data`` in arbitrary chunks, then EOF."""

    def __init__(self, data: bytes, sizes: list[int]) -> None:
        self.data = data
        self.consumed = 0
        self._sizes = iter(sizes)

    def recv(self, bufsize: int) -> bytes:
        size = min(bufsize, next(self._sizes, bufsize))
        chunk = self.data[self.consumed : self.consumed + size]
        self.consumed += len(chunk)
        return chunk


@SERIALIZERS
@settings(max_examples=60, deadline=None)
@given(messages=st.lists(payloads, max_size=5), sizes=chunk_sizes)
def test_frames_round_trip_then_eof_is_none(serializer, messages, sizes):
    data = b"".join(codec.encode_frame(m, serializer) for m in messages)
    sock = ChunkedSocket(data, sizes)
    for message in messages:
        assert codec.recv_frame(sock, serializer) == message
    # EOF exactly at a frame boundary is a clean close, not an error.
    assert codec.recv_frame(sock, serializer) is None


@SERIALIZERS
@settings(max_examples=60, deadline=None)
@given(
    messages=st.lists(payloads, min_size=1, max_size=4),
    cut=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    sizes=chunk_sizes,
)
def test_eof_mid_frame_reports_frame_relative_offset(
    serializer, messages, cut, sizes
):
    frames = [codec.encode_frame(m, serializer) for m in messages]
    last = frames[-1]
    keep = 1 + int(cut * (len(last) - 1))  # 1 .. len(last) - 1 bytes
    sock = ChunkedSocket(b"".join(frames[:-1]) + last[:keep], sizes)
    for message in messages[:-1]:
        assert codec.recv_frame(sock, serializer) == message
    with pytest.raises(codec.ProtocolError) as info:
        codec.recv_frame(sock, serializer)
    assert info.value.bytes_read == keep


@SERIALIZERS
@settings(max_examples=30, deadline=None)
@given(
    excess=st.integers(min_value=1, max_value=2**32 - 1 - codec.MAX_MESSAGE_BYTES),
    tail=st.binary(max_size=64),
    sizes=chunk_sizes,
)
def test_oversize_prefix_rejected_before_the_payload(
    serializer, excess, tail, sizes
):
    data = codec.frame_header(codec.MAX_MESSAGE_BYTES + excess) + tail
    sock = ChunkedSocket(data, sizes)
    with pytest.raises(codec.ProtocolError, match="limit") as info:
        codec.recv_frame(sock, serializer)
    assert sock.consumed == codec.HEADER_BYTES  # no payload byte was read
    assert info.value.bytes_read == codec.HEADER_BYTES


@SERIALIZERS
def test_oversize_payload_refused_on_encode(serializer, monkeypatch):
    monkeypatch.setattr(codec, "MAX_MESSAGE_BYTES", 64)  # keep it small
    codec.encode_frame("x" * 16, serializer)
    with pytest.raises(codec.ProtocolError, match="limit"):
        codec.encode_frame("x" * 100, serializer)


@SERIALIZERS
def test_undecodable_payload_raises(serializer):
    data = codec.frame_header(4) + b"\xff\xfe\x00\x01"
    with pytest.raises(codec.ProtocolError, match="undecodable"):
        codec.recv_frame(ChunkedSocket(data, []), serializer)


def _corrupt_own_channel() -> None:
    """Inside an elastic worker: announce an impossible frame on every
    socket the process holds (its only one is its channel), then hang."""
    for name in os.listdir("/proc/self/fd"):
        try:
            fd = int(name)
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.write(fd, codec.frame_header(codec.MAX_MESSAGE_BYTES + 1))
        except OSError:
            continue
    while True:
        time.sleep(1.0)


class _Timeout(Exception):
    pass


@pytest.mark.skipif(
    not fork_available() or not os.path.isdir("/proc/self/fd"),
    reason="needs os.fork and /proc/self/fd",
)
def test_corrupt_prefix_on_the_elastic_channel_is_a_worker_loss(
    tmp_path, monkeypatch
):
    """The parent must reject the prefix and reassign the lease, not
    block reading four gigabytes from a worker that will never send
    them (the lease watchdog is off, so nothing else could rescue it)."""
    import repro.parallel.elastic as elastic

    real_tick = elastic.WorkerContext.tick

    def tick_or_corrupt(self, advance=1):
        if self.worker_id == 1:  # the first worker, mid-lease
            _corrupt_own_channel()
        real_tick(self, advance)

    monkeypatch.setattr(elastic.WorkerContext, "tick", tick_or_corrupt)

    def _expire(signum, frame):
        raise _Timeout("the parent blocked on a corrupt frame")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(20)
    try:
        rng = np.random.default_rng(3)
        report = run_elastic_formation(
            rng.uniform(500.0, 1500.0, (6, 6)),
            workers=1,
            chunk_items=16,
            output_dir=tmp_path,
            lease_timeout=None,
            term_grace=0.2,
        )
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert report.chunks_completed == report.chunks_total
    assert report.leases_reassigned >= 1
    assert report.workers_respawned >= 1

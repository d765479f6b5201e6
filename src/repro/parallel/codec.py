"""Length-prefixed frames: the one wire codec under every channel.

A frame is a 4-byte big-endian payload length followed by that many
payload bytes.  Every stream channel in the repo speaks it, with a
serializer chosen per channel:

* the solve service's client socket and the fleet front — :data:`JSON`
  (debuggable with ``socat``; Python's float ``repr`` round-trips a
  resistance field bit-identically);
* the serve executor, the elastic pool and the MPI-like runtime —
  :data:`PICKLE` (both ends are the same trusted codebase, and binary
  floats round-trip by construction).

The codec owns what those channels must agree on: the header, the
:data:`MAX_MESSAGE_BYTES` bound (checked on both sides, and on receive
*before* any payload byte is read, so a corrupt prefix fails fast
instead of stalling on a multi-gigabyte read), the exact-read loop,
and :class:`ProtocolError` with its frame-relative ``bytes_read``.
"""

from __future__ import annotations

import json
import pickle
import socket
import struct
from typing import Any, Callable, NamedTuple

#: Refuse frames beyond this many payload bytes (a 200x200 field is
#: ~1 MB; 64 MB leaves head-room without letting a bad peer exhaust RAM).
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: Size of the length prefix in bytes.
HEADER_BYTES = _HEADER.size


class ProtocolError(RuntimeError):
    """The peer sent bytes that do not frame/parse as a message.

    ``bytes_read`` records how far into the current frame the stream
    broke (0 when the failure happened between frames), so a client can
    report the offset and decide whether the request was already acked.
    """

    def __init__(self, message: str, *, bytes_read: int = 0) -> None:
        super().__init__(message)
        self.bytes_read = bytes_read


class Serializer(NamedTuple):
    """How one channel turns objects into payload bytes and back."""

    name: str
    dumps: Callable[[Any], bytes]
    loads: Callable[[bytes], Any]


JSON = Serializer(
    "json",
    lambda obj: json.dumps(obj, separators=(",", ":")).encode("utf-8"),
    lambda data: json.loads(data.decode("utf-8")),
)

PICKLE = Serializer(
    "pickle",
    lambda obj: pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL),
    pickle.loads,
)


def frame_header(length: int) -> bytes:
    """The length prefix announcing ``length`` payload bytes."""
    return _HEADER.pack(length)


def encode_frame(obj: Any, serializer: Serializer) -> bytes:
    """Serialize ``obj`` and prefix its length; raises on oversize."""
    payload = serializer.dumps(obj)
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte limit"
        )
    return _HEADER.pack(len(payload)) + payload


def send_frame(sock: socket.socket, obj: Any, serializer: Serializer) -> None:
    """Write one frame to a connected stream socket."""
    sock.sendall(encode_frame(obj, serializer))


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; None on clean EOF before the first.

    EOF after some bytes raises :class:`ProtocolError` whose
    ``bytes_read`` counts the bytes of this read that did arrive.
    """
    chunks: list[bytes] = []
    got = 0
    while got < count:
        chunk = sock.recv(min(count - got, 1 << 20))
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError(
                f"connection closed mid-message ({got}/{count} bytes)",
                bytes_read=got,
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket, serializer: Serializer) -> Any | None:
    """Read one frame; None when the peer closed cleanly between frames."""
    header = _recv_exact(sock, HEADER_BYTES)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame (limit {MAX_MESSAGE_BYTES})",
            bytes_read=HEADER_BYTES,
        )
    try:
        payload = _recv_exact(sock, length)
    except ProtocolError as exc:
        exc.bytes_read += HEADER_BYTES  # frame-relative: the header landed
        raise
    if payload is None:
        raise ProtocolError(
            "connection closed between header and payload",
            bytes_read=HEADER_BYTES,
        )
    try:
        return serializer.loads(payload)
    except Exception as exc:
        raise ProtocolError(
            f"undecodable {serializer.name} payload: {exc}",
            bytes_read=HEADER_BYTES + length,
        ) from exc

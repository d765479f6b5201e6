"""Wire-protocol unit tests: framing, schema, status/exit mapping."""

import socket

import numpy as np
import pytest

from repro.serve.protocol import (
    MAX_MESSAGE_BYTES,
    PRIORITY_BATCH,
    PRIORITY_CLASSES,
    PRIORITY_INTERACTIVE,
    RETRIABLE_EXIT_CODE,
    RETRIABLE_STATUSES,
    STATUS_DEADLINE,
    STATUS_DRAINING,
    STATUS_FAILED,
    STATUS_INVALID,
    STATUS_OK,
    STATUS_QUEUE_FULL,
    STATUS_QUOTA,
    STATUS_WORKER_LOST,
    ProtocolError,
    Request,
    Response,
    encode_message,
    exit_status_for,
    recv_message,
    send_message,
)


def _z(n: int) -> list:
    rng = np.random.default_rng(7)
    return rng.uniform(2000.0, 11000.0, size=(n, n)).tolist()


class TestFraming:
    def test_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            message = {"kind": "solve", "z": _z(4), "hour": 6.0}
            send_message(a, message)
            assert recv_message(b) == message
        finally:
            a.close()
            b.close()

    def test_eof_at_boundary_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_message(b) is None
        finally:
            b.close()

    def test_eof_mid_message_raises(self):
        a, b = socket.socketpair()
        try:
            frame = encode_message({"kind": "ping"})
            a.sendall(frame[: len(frame) - 2])
            a.close()
            with pytest.raises(ProtocolError, match="mid-message") as info:
                recv_message(b)
            # Offset is frame-relative: full header + partial payload.
            assert info.value.bytes_read == len(frame) - 2
        finally:
            b.close()

    def test_eof_between_header_and_payload_reports_offset(self):
        a, b = socket.socketpair()
        try:
            frame = encode_message({"kind": "ping"})
            a.sendall(frame[:4])
            a.close()
            with pytest.raises(ProtocolError) as info:
                recv_message(b)
            assert info.value.bytes_read == 4
        finally:
            b.close()

    def test_garbage_payload_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall((5).to_bytes(4, "big") + b"\xff\xfejunk")
            with pytest.raises(ProtocolError, match="undecodable"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_oversize_announcement_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall((MAX_MESSAGE_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(ProtocolError, match="limit"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_non_object_payload_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall((2).to_bytes(4, "big") + b"[]")
            with pytest.raises(ProtocolError, match="JSON object"):
                recv_message(b)
        finally:
            a.close()
            b.close()


class TestRequestSchema:
    def test_roundtrip_preserves_floats_bit_exactly(self):
        z = _z(5)
        request = Request(z=z, voltage=4.99, hour=12.0, deadline=1.5)
        parsed = Request.from_dict(request.to_dict())
        assert np.array_equal(parsed.z_array(), np.asarray(z))
        assert parsed.voltage == 4.99
        assert parsed.deadline == 1.5

    def test_n_and_shape_check(self):
        request = Request(z=_z(6))
        assert request.n == 6
        assert request.z_array().shape == (6, 6)

    @pytest.mark.parametrize(
        "z",
        [
            [[1.0, 2.0]],                                  # not square
            [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],          # not square
            [[1.0]],                                       # n < 2
            [[1.0, 2.0], [3.0]],                           # ragged
        ],
    )
    def test_bad_shapes_rejected(self, z):
        with pytest.raises(ValueError):
            Request(z=z).z_array()

    def test_from_dict_rejects_empty_z(self):
        with pytest.raises(ValueError, match="'z'"):
            Request.from_dict({"kind": "solve", "z": []})

    def test_from_dict_requires_z_list(self):
        with pytest.raises(ValueError, match="'z'"):
            Request.from_dict({"kind": "solve", "z": "nope"})

    def test_from_dict_requires_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            Request.from_dict([1, 2])

    def test_priority_and_client_id_roundtrip(self):
        request = Request(
            z=_z(3), priority=PRIORITY_INTERACTIVE, client_id="alice"
        )
        parsed = Request.from_dict(request.to_dict())
        assert parsed.priority == PRIORITY_INTERACTIVE
        assert parsed.client_id == "alice"

    def test_priority_defaults_to_batch(self):
        parsed = Request.from_dict({"kind": "solve", "z": _z(3)})
        assert parsed.priority == PRIORITY_BATCH
        assert parsed.client_id == ""

    def test_legacy_backend_key_is_ignored(self):
        # Clients predating the removal of the solver compute knob and
        # of the formation-path knob still send "backend" / "formation";
        # the request must decode as if the key were absent.  (One test
        # over both stale keys, so its id stays stable.)
        for key, value in (("backend", "compiled"), ("formation", "legacy")):
            legacy = Request.from_dict({"kind": "solve", "z": _z(3), key: value})
            assert legacy == Request.from_dict({"kind": "solve", "z": _z(3)})
            assert key not in legacy.to_dict()

    def test_unknown_priority_rejected(self):
        with pytest.raises(ValueError, match="unknown priority"):
            Request.from_dict({"kind": "solve", "z": _z(3), "priority": "vip"})


class TestResponseSchema:
    def test_roundtrip(self):
        response = Response(
            id="abc",
            status=STATUS_OK,
            summary="done",
            manifest_path="/tmp/m.json",
            num_regions=2,
            resistance=_z(3),
            events=("repaired measurement",),
            batch_size=4,
            cache_warm=True,
            queue_seconds=0.01,
            elapsed_seconds=0.5,
        )
        parsed = Response.from_dict(response.to_dict())
        assert parsed == response
        assert parsed.ok and not parsed.retriable
        assert parsed.resistance_array().shape == (3, 3)

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError, match="unknown response status"):
            Response.from_dict({"id": "x", "status": "weird"})

    def test_resistance_absent(self):
        response = Response(id="x", status=STATUS_FAILED, error="boom")
        assert response.resistance_array() is None


class TestStatusMapping:
    def test_exit_statuses(self):
        assert exit_status_for(STATUS_OK) == 0
        assert exit_status_for(STATUS_FAILED) == 1
        assert exit_status_for(STATUS_INVALID) == 2
        assert exit_status_for(STATUS_DEADLINE) == 94
        assert exit_status_for(STATUS_QUEUE_FULL) == RETRIABLE_EXIT_CODE
        assert exit_status_for(STATUS_DRAINING) == RETRIABLE_EXIT_CODE
        assert exit_status_for(STATUS_WORKER_LOST) == RETRIABLE_EXIT_CODE
        assert exit_status_for(STATUS_QUOTA) == RETRIABLE_EXIT_CODE

    def test_deadline_exit_matches_batch_cli(self):
        from repro.resilience.supervise import DEADLINE_EXIT_CODE

        assert exit_status_for(STATUS_DEADLINE) == DEADLINE_EXIT_CODE

    def test_retriable_statuses_are_exactly_the_safe_resubmits(self):
        assert RETRIABLE_STATUSES == {
            STATUS_QUEUE_FULL,
            STATUS_DRAINING,
            STATUS_WORKER_LOST,
            STATUS_QUOTA,
        }
        for status in RETRIABLE_STATUSES:
            assert Response(id="x", status=status).retriable

    def test_priority_classes_order_interactive_first(self):
        assert PRIORITY_CLASSES[0] == PRIORITY_INTERACTIVE
        assert PRIORITY_BATCH in PRIORITY_CLASSES

    def test_unknown_status_raises(self):
        with pytest.raises(ValueError):
            exit_status_for("nope")

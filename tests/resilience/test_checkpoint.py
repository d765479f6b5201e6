"""Checkpoint manifests: record, verify, invalidate, resume."""

import json

import numpy as np
import pytest

from repro.core.engine import ParmaEngine
from repro.core.streaming import stream_to_file
from repro.core.templates import PairTemplate
from repro.mea.dataset import Measurement
from repro.mea.wetlab import quick_device_data
from repro.resilience.checkpoint import (
    CampaignCheckpoint,
    CheckpointError,
    StreamCheckpoint,
    stream_to_file_checkpointed,
    verify_stream_directory,
)
from repro.resilience.faults import FaultPlan, InjectedAbort


@pytest.fixture(scope="module")
def z5():
    _, z = quick_device_data(5, seed=9)
    return z


@pytest.fixture(scope="module")
def result5(z5):
    return ParmaEngine(strategy="single").parametrize(Measurement(z_kohm=z5))


class TestCampaignCheckpoint:
    def test_record_and_load_round_trip(self, tmp_path, result5):
        cp = CampaignCheckpoint(tmp_path)
        cp.record(0, result5)

        fresh = CampaignCheckpoint(tmp_path)
        assert fresh.num_completed == 1
        assert fresh.matches(0, result5.measurement.hour, 5)
        restored = fresh.load_field(0)
        assert np.array_equal(restored, result5.resistance)

    def test_entry_carries_solve_and_formation_metadata(
        self, tmp_path, result5
    ):
        cp = CampaignCheckpoint(tmp_path)
        cp.record(0, result5)
        e = cp.entry(0)
        assert e["rung"] == "primary"
        assert e["solve"]["method"] == result5.solve.method
        assert e["formation"]["checksum"] == pytest.approx(
            result5.formation.checksum
        )

    def test_corrupt_field_file_fails_digest(self, tmp_path, result5):
        cp = CampaignCheckpoint(tmp_path)
        cp.record(0, result5)
        field_path = tmp_path / cp.entry(0)["field_file"]
        raw = bytearray(field_path.read_bytes())
        raw[-1] ^= 0xFF
        field_path.write_bytes(bytes(raw))

        with pytest.raises(CheckpointError, match="SHA-256"):
            CampaignCheckpoint(tmp_path).load_field(0)

    def test_invalidate_from_drops_suffix(self, tmp_path, result5):
        cp = CampaignCheckpoint(tmp_path)
        cp.record(0, result5)
        cp.record(1, result5)
        cp.invalidate_from(1)
        assert cp.num_completed == 1
        assert CampaignCheckpoint(tmp_path).num_completed == 1

    def test_matches_requires_same_hour(self, tmp_path, result5):
        cp = CampaignCheckpoint(tmp_path)
        cp.record(0, result5)
        assert cp.matches(0, result5.measurement.hour, 5)
        assert not cp.matches(0, result5.measurement.hour + 1.0, 5)
        assert not cp.matches(1, result5.measurement.hour, 5)

    def test_wrong_manifest_kind_rejected(self, tmp_path, z5):
        stream_to_file_checkpointed(z5, tmp_path)
        with pytest.raises(CheckpointError, match="stream-checkpoint"):
            CampaignCheckpoint(tmp_path)


class TestStreamCheckpoint:
    def _reference_bytes(self, z, tmp_path):
        ref = tmp_path / "reference.bin"
        stream_to_file(z, ref)
        return ref.read_bytes()

    def test_clean_stream_completes_and_matches_plain_writer(
        self, tmp_path, z5
    ):
        cp, report, formed = stream_to_file_checkpointed(z5, tmp_path / "s")
        assert cp.complete
        assert formed == 25
        assert report.blocks_discarded == 0
        assert (tmp_path / "s" / "equations.bin").read_bytes() == (
            self._reference_bytes(z5, tmp_path)
        )

    def test_completed_directory_is_a_noop(self, tmp_path, z5):
        stream_to_file_checkpointed(z5, tmp_path / "s")
        cp, report, formed = stream_to_file_checkpointed(z5, tmp_path / "s")
        assert cp.complete
        assert formed == 0
        assert report.blocks_verified == 25

    def test_corrupt_block_detected_and_reformed(self, tmp_path, z5):
        sdir = tmp_path / "s"
        faults = FaultPlan(corrupt_blocks=(7,))
        cp, _, _ = stream_to_file_checkpointed(z5, sdir, faults=faults)
        # The writer journals the *intended* checksum, so the corrupt
        # byte stream disagrees with the journal on verify.
        report = verify_stream_directory(sdir)
        assert report.blocks_verified == 7
        assert "checksum mismatch" in report.first_bad_reason

        # Checkpoints written while a formation-path knob existed carry
        # it in their params; compatibility checks only n and voltage,
        # so such a directory still resumes from its verified prefix.
        manifest_path = sdir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["params"]["formation"] = "legacy"
        manifest_path.write_text(json.dumps(manifest))

        cp, report, formed = stream_to_file_checkpointed(z5, sdir)
        assert cp.complete
        assert report.blocks_discarded > 0
        assert formed == 25 - 7
        assert (sdir / "equations.bin").read_bytes() == (
            self._reference_bytes(z5, tmp_path)
        )

    def test_dropped_block_leaves_journal_gap(self, tmp_path, z5):
        sdir = tmp_path / "s"
        stream_to_file_checkpointed(
            z5, sdir, faults=FaultPlan(drop_blocks=(3,))
        )
        report = verify_stream_directory(sdir)
        assert report.blocks_verified == 3
        assert "journal gap" in report.first_bad_reason

        cp, _, _ = stream_to_file_checkpointed(z5, sdir)
        assert cp.complete
        assert (sdir / "equations.bin").read_bytes() == (
            self._reference_bytes(z5, tmp_path)
        )

    def test_abort_then_resume_is_byte_identical(self, tmp_path, z5):
        sdir = tmp_path / "s"
        with pytest.raises(InjectedAbort):
            stream_to_file_checkpointed(
                z5, sdir, faults=FaultPlan(abort_after_blocks=11)
            )
        cp = StreamCheckpoint(sdir)
        assert not cp.complete

        cp, report, formed = stream_to_file_checkpointed(z5, sdir)
        assert cp.complete
        assert formed == 25 - report.blocks_verified
        assert (sdir / "equations.bin").read_bytes() == (
            self._reference_bytes(z5, tmp_path)
        )

    def test_resume_stamps_only_unverified_pairs(
        self, tmp_path, z5, monkeypatch
    ):
        sdir = tmp_path / "s"
        with pytest.raises(InjectedAbort):
            stream_to_file_checkpointed(
                z5, sdir, faults=FaultPlan(abort_after_blocks=11)
            )
        verified = verify_stream_directory(sdir).blocks_verified
        # The abort comes before the first periodic journal rewrite;
        # the journal written after the first block still resumes it.
        assert verified >= 1
        assert verified < 25

        stamped = []
        real_stamp_batch = PairTemplate.stamp_batch

        def counting_stamp_batch(self, rows, cols, z, voltage=5.0):
            stamped.extend(zip(rows.tolist(), cols.tolist()))
            return real_stamp_batch(self, rows, cols, z, voltage=voltage)

        monkeypatch.setattr(PairTemplate, "stamp_batch", counting_stamp_batch)
        cp, report, formed = stream_to_file_checkpointed(z5, sdir)
        monkeypatch.undo()

        assert report.blocks_verified == verified
        assert len(stamped) == formed == 25 - verified
        assert stamped[0] == divmod(verified, 5)
        assert cp.complete
        assert (sdir / "equations.bin").read_bytes() == (
            self._reference_bytes(z5, tmp_path)
        )

    def test_truncated_data_file_detected(self, tmp_path, z5):
        sdir = tmp_path / "s"
        stream_to_file_checkpointed(z5, sdir)
        data = sdir / "equations.bin"
        data.write_bytes(data.read_bytes()[:-10])
        report = verify_stream_directory(sdir)
        assert report.blocks_verified == 24
        assert "truncated" in report.first_bad_reason

    def test_incompatible_params_restart_from_scratch(self, tmp_path, z5):
        sdir = tmp_path / "s"
        stream_to_file_checkpointed(z5, sdir, voltage=5.0)
        cp, report, formed = stream_to_file_checkpointed(
            z5, sdir, voltage=3.0
        )
        assert report.blocks_verified == 0
        assert formed == 25
        assert cp.params["voltage"] == 3.0

    def test_manifest_schema_matches_docs(self, tmp_path, z5):
        sdir = tmp_path / "s"
        stream_to_file_checkpointed(z5, sdir)
        manifest = json.loads((sdir / "manifest.json").read_text())
        assert manifest["kind"] == "stream-checkpoint"
        assert manifest["version"] == 1
        assert manifest["complete"] is True
        first = manifest["blocks"][0]
        assert set(first) == {
            "index", "row", "col", "offset", "nbytes", "checksum",
        }

    def test_verify_without_manifest_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no stream manifest"):
            verify_stream_directory(tmp_path)

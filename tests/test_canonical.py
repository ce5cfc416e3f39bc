"""Spec identity: canonical JSON, content digests and tagged wire forms.

``repro.api.canonical`` is the single answer to "are these two specs the
same computation?" -- shared by the on-disk checkpoint store and the study
server's request coalescing.  The byte layout of the canonical JSON is an
on-disk compatibility contract, so the digests of reference specs are
**pinned** here: if one of these assertions fails, every existing
checkpoint store has been orphaned.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api.canonical import (
    canonical_spec_json,
    report_from_wire,
    report_to_wire,
    resolved_store_spec,
    spec_digest,
    spec_from_wire,
    spec_store_payload,
    spec_to_wire,
)
from repro.api.session import Session
from repro.api.spec import (
    AnalysisSpec,
    DesignStudySpec,
    PipelineSpec,
    StudySpec,
)
from repro.robust.checkpoint import CheckpointStore

SMALL = StudySpec(
    pipeline=PipelineSpec(n_stages=2),
    analysis=AnalysisSpec(n_samples=200, seed=11),
)


class TestPinnedDigests:
    """The on-disk compatibility contract: these digests must never change."""

    def test_default_study_spec_digest_is_pinned(self):
        assert spec_digest(StudySpec()) == (
            "b4f23dcea6e616dc3407a8392d8a3007d53afecd4c71cf6529e783f12249ca6a"
        )

    def test_reference_design_spec_digest_is_pinned(self):
        spec = DesignStudySpec(validation=AnalysisSpec(n_samples=500, seed=7))
        assert spec_digest(spec) == (
            "44909bfb6653e3806c04000419fdcc3141331aef2fa49d8ce1a053ab9505ca93"
        )

    def test_canonical_json_is_sorted_and_compact(self):
        text = canonical_spec_json(StudySpec())
        payload = json.loads(text)
        assert text == json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert payload["kind"] == "study"

    def test_name_and_targets_do_not_change_the_digest(self):
        base = spec_digest(SMALL)
        relabelled = SMALL.replace(name="relabelled", target_yield=0.42)
        assert spec_digest(relabelled) == base

    def test_computation_fields_do_change_the_digest(self):
        base = spec_digest(SMALL)
        changed = SMALL.replace(
            analysis=dataclasses.replace(SMALL.analysis, n_samples=201)
        )
        assert spec_digest(changed) != base


class TestCheckpointEquivalence:
    """The checkpoint store and the serving layer share one identity."""

    def test_checkpoint_reexports_are_the_same_functions(self):
        from repro.robust import checkpoint

        assert checkpoint.spec_digest is spec_digest
        assert checkpoint.spec_store_payload is spec_store_payload
        assert checkpoint.resolved_store_spec is resolved_store_spec

    def test_store_path_uses_the_shared_digest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        digest = spec_digest(SMALL)
        assert store.digest(SMALL) == digest
        assert store.path_for(digest).name == f"{digest}.json"

    def test_on_disk_entry_lands_at_the_pinned_address(self, tmp_path):
        store = CheckpointStore(tmp_path)
        session = Session(store=store)
        report = session.run(SMALL)
        digest = spec_digest(SMALL)
        path = store.path_for(digest)
        assert path.exists()
        assert store.get(SMALL) == report

    def test_deferred_seed_resolves_before_digesting(self):
        deferred = SMALL.replace(
            analysis=dataclasses.replace(SMALL.analysis, seed=None)
        )
        low, high = Session(root_seed=1), Session(root_seed=2)
        resolved_low = resolved_store_spec(deferred, low)
        resolved_high = resolved_store_spec(deferred, high)
        assert resolved_low.analysis.seed is not None
        assert spec_digest(resolved_low) != spec_digest(resolved_high)
        # A concrete seed passes through untouched.
        assert resolved_store_spec(SMALL, low) is SMALL

    def test_edited_netlist_file_misses_the_store(self, tmp_path):
        from repro.circuit.ingest import FIXTURE_DIR

        bench = tmp_path / "c17.bench"
        bench.write_text((FIXTURE_DIR / "c17.bench").read_text())
        spec = StudySpec(
            pipeline=PipelineSpec(
                kind="bench", n_stages=1, options={"path": str(bench)}
            ),
            analysis=AnalysisSpec(backend="ssta", seed=3),
        )
        store = CheckpointStore(tmp_path / "store")
        original = Session(store=store).run(spec)

        text = bench.read_text()
        assert "16 = NAND(2, 11)" in text
        bench.write_text(text.replace("16 = NAND(2, 11)", "16 = NAND(2, 19)"))
        rerun_session = Session(store=store)
        rerun = rerun_session.run(spec)
        fresh = Session().run(spec)
        assert rerun_session.store_hits == 0
        assert rerun == fresh
        assert rerun != original
        # The unedited contents still resolve to their own entry.
        bench.write_text(text)
        again = Session(store=store)
        assert again.run(spec) == original
        assert again.store_hits == 1


class TestWireForms:
    def test_study_spec_wire_round_trip(self):
        wire = spec_to_wire(SMALL)
        assert wire["kind"] == "study"
        assert spec_from_wire(json.loads(json.dumps(wire))) == SMALL

    def test_design_spec_wire_round_trip(self):
        spec = DesignStudySpec(validation=AnalysisSpec(n_samples=500, seed=7))
        wire = spec_to_wire(spec)
        assert wire["kind"] == "design"
        assert spec_from_wire(json.loads(json.dumps(wire))) == spec

    def test_delay_report_wire_round_trip(self):
        report = Session().run(SMALL)
        wire = report_to_wire(report)
        assert wire["kind"] == "delay"
        assert report_from_wire(json.loads(json.dumps(wire))) == report

    def test_design_report_wire_round_trip(self):
        # 3 stages: the degenerate 2-stage design yields a NaN sensitivity
        # ratio, and NaN breaks equality (not the wire format) after a trip.
        spec = DesignStudySpec(
            pipeline=PipelineSpec(n_stages=3),
            validation=AnalysisSpec(n_samples=200, seed=5),
        )
        report = Session().run(spec)
        wire = report_to_wire(report)
        assert wire["kind"] == "design"
        assert report_from_wire(json.loads(json.dumps(wire))) == report

    def test_unknown_kinds_are_rejected(self):
        with pytest.raises(ValueError, match="unknown spec wire kind"):
            spec_from_wire({"kind": "mystery", "data": {}})
        with pytest.raises(ValueError, match="unknown report wire kind"):
            report_from_wire({"kind": "mystery", "data": {}})
        with pytest.raises(TypeError):
            spec_store_payload(object())
        with pytest.raises(TypeError):
            report_to_wire(object())


class TestSessionStats:
    def test_stats_shape_and_counters(self):
        session = Session()
        stats = session.stats()
        assert stats["cache_hits"] == 0
        assert stats["cache_misses"] == 0
        assert stats["has_store"] is False
        assert set(stats["cached"]) == {
            "pipelines", "variations", "mc_runs", "analyzers", "reports",
            "sizers", "balanced", "curves", "design_reports",
            "design_validations",
        }
        assert all(count == 0 for count in stats["cached"].values())

        session.run(SMALL)
        after = session.stats()
        assert after["cached"]["reports"] == 1
        assert after["cached"]["mc_runs"] == 1
        assert after["cache_misses"] > 0

    def test_stats_is_json_safe(self):
        session = Session()
        session.run(SMALL)
        assert json.loads(json.dumps(session.stats())) == session.stats()

"""Scenario-sweep runner: axis handling, RNG hygiene, streaming, parallelism."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.robust.executor as executor_module
from repro.api.session import Session, Study, derive_seed
from repro.api.spec import AnalysisSpec, PipelineSpec, StudySpec, VariationSpec
from repro.api.sweep import ScenarioSweep, SweepPoint, apply_axis, run_sweep
from repro.process.technology import default_technology
from repro.robust.executor import _robust_worker, _worker_session


@pytest.fixture(scope="module")
def base_spec() -> StudySpec:
    return StudySpec(
        pipeline=PipelineSpec(n_stages=2, logic_depth=3),
        variation=VariationSpec.combined(),
        analysis=AnalysisSpec(backend="montecarlo", n_samples=200, seed=11),
    )


class TestAxisApplication:
    def test_nested_sections(self, base_spec):
        spec = apply_axis(base_spec, "pipeline.n_stages", 4)
        spec = apply_axis(spec, "variation.sigma_scale", 0.5)
        spec = apply_axis(spec, "analysis.backend", "ssta")
        assert spec.pipeline.n_stages == 4
        assert spec.variation.sigma_scale == 0.5
        assert spec.analysis.backend == "ssta"
        # base untouched
        assert base_spec.pipeline.n_stages == 2

    def test_top_level_fields(self, base_spec):
        assert apply_axis(base_spec, "target_yield", 0.9).target_yield == 0.9
        assert apply_axis(base_spec, "study.target_yield", 0.8).target_yield == 0.8

    def test_bad_section_rejected(self, base_spec):
        with pytest.raises(ValueError, match="axis path"):
            apply_axis(base_spec, "nonsense.field", 1)

    def test_bad_field_rejected(self, base_spec):
        with pytest.raises(TypeError):
            apply_axis(base_spec, "pipeline.nonsense", 1)


class TestSweepConstruction:
    def test_grid_is_cartesian_product_in_axis_order(self, base_spec):
        sweep = ScenarioSweep(
            base_spec,
            {"pipeline.n_stages": [2, 3], "pipeline.logic_depth": [3, 4, 5]},
        )
        assert len(sweep) == 6
        coords = sweep.coords()
        assert coords[0] == (("pipeline.n_stages", 2), ("pipeline.logic_depth", 3))
        assert coords[-1] == (("pipeline.n_stages", 3), ("pipeline.logic_depth", 5))

    def test_zip_pairs_elementwise(self, base_spec):
        sweep = ScenarioSweep(
            base_spec,
            {"pipeline.n_stages": [2, 3], "pipeline.logic_depth": [3, 4]},
            mode="zip",
        )
        assert len(sweep) == 2
        assert [spec.pipeline.logic_depth for spec in sweep.specs()] == [3, 4]

    def test_zip_length_mismatch_rejected(self, base_spec):
        with pytest.raises(ValueError, match="equal-length"):
            ScenarioSweep(
                base_spec,
                {"pipeline.n_stages": [2, 3], "pipeline.logic_depth": [3]},
                mode="zip",
            )

    @pytest.mark.parametrize(
        "kwargs", [{"mode": "diagonal"}, {"seed_policy": "random"}]
    )
    def test_bad_modes_rejected(self, base_spec, kwargs):
        with pytest.raises(ValueError):
            ScenarioSweep(base_spec, {"pipeline.n_stages": [2]}, **kwargs)

    def test_empty_axes_rejected(self, base_spec):
        with pytest.raises(ValueError, match="at least one axis"):
            ScenarioSweep(base_spec, {})
        with pytest.raises(ValueError, match="no values"):
            ScenarioSweep(base_spec, {"pipeline.n_stages": []})


class TestSeedHygiene:
    def test_spawned_seeds_are_unique_and_deterministic(self, base_spec):
        axes = {"pipeline.n_stages": [2, 3, 4]}
        seeds_a = [s.analysis.seed for s in ScenarioSweep(base_spec, axes).specs()]
        seeds_b = [s.analysis.seed for s in ScenarioSweep(base_spec, axes).specs()]
        assert seeds_a == seeds_b
        assert len(set(seeds_a)) == len(seeds_a)
        assert all(seed != base_spec.analysis.seed for seed in seeds_a)

    def test_derive_seed_matches_seed_sequence_spawning(self):
        child = np.random.SeedSequence(11, spawn_key=(2, 5))
        assert derive_seed(11, 2, 5) == int(child.generate_state(1, dtype=np.uint64)[0])

    def test_none_base_seed_spawns_from_session_root(self, base_spec):
        spec = base_spec.replace(
            analysis=base_spec.analysis.with_seed(None)
        )
        sweep = ScenarioSweep(spec, {"pipeline.n_stages": [2, 3]})
        # the seed stays deferred until a session is known...
        assert [s.analysis.seed for s in sweep.specs()] == [None, None]
        # ...then resolves against the executing session's root seed
        points = list(sweep.iter_results(Session(root_seed=7)))
        seeds = [point.spec.analysis.seed for point in points]
        assert None not in seeds and len(set(seeds)) == 2
        assert seeds == [derive_seed(7, 0), derive_seed(7, 1)]
        # a different session root gives different (still independent) streams
        other = [
            point.spec.analysis.seed
            for point in sweep.iter_results(Session(root_seed=8))
        ]
        assert set(other).isdisjoint(seeds)

    def test_fixed_policy_keeps_base_seed(self, base_spec):
        sweep = ScenarioSweep(
            base_spec, {"pipeline.n_stages": [2, 3]}, seed_policy="fixed"
        )
        assert [s.analysis.seed for s in sweep.specs()] == [11, 11]

    def test_explicit_seed_axis_wins_over_spawning(self, base_spec):
        sweep = ScenarioSweep(base_spec, {"analysis.seed": [1, 2, 3]})
        assert [s.analysis.seed for s in sweep.specs()] == [1, 2, 3]

    def test_backend_axis_points_share_a_seed(self, base_spec):
        """Backend-only coordinates keep one seed, so the montecarlo and
        analytic points of a backend sweep share a cached characterisation."""
        sweep = ScenarioSweep(
            base_spec,
            {"analysis.backend": ["montecarlo", "analytic"],
             "pipeline.n_stages": [2, 3]},
        )
        by_stage: dict[int, set[int]] = {}
        for spec in sweep.specs():
            by_stage.setdefault(spec.pipeline.n_stages, set()).add(
                spec.analysis.seed
            )
        # one seed per n_stages value, shared across both backends
        assert all(len(seeds) == 1 for seeds in by_stage.values())
        assert by_stage[2] != by_stage[3]


class TestSweepExecution:
    def test_streaming_preserves_order_and_specs(self, base_spec):
        sweep = ScenarioSweep(
            base_spec, {"pipeline.n_stages": [2, 3]}, seed_policy="fixed"
        )
        points = list(sweep.iter_results(Session()))
        assert [point.index for point in points] == [0, 1]
        assert [point.coord("pipeline.n_stages") for point in points] == [2, 3]
        assert all(isinstance(point, SweepPoint) for point in points)

    def test_points_match_standalone_studies_under_fixed_seed(self, base_spec):
        session = Session()
        sweep = ScenarioSweep(
            base_spec, {"pipeline.n_stages": [2, 3]}, seed_policy="fixed"
        )
        result = sweep.run(session=session)
        for point in result:
            standalone = Study(point.spec, session=Session()).run()
            assert standalone == point.report

    def test_parallel_matches_serial(self, base_spec):
        axes = {"pipeline.n_stages": [2, 3], "variation.sigma_scale": [0.5, 1.0]}
        serial = ScenarioSweep(base_spec, axes).run()
        parallel = ScenarioSweep(base_spec, axes).run(n_jobs=2)
        assert serial.reports() == parallel.reports()

    def test_parallel_workers_inherit_session_parameters(self, base_spec):
        """Workers must mirror the dispatching session's root seed, so a
        non-default session gives identical numbers serially and in parallel."""
        spec = base_spec.replace(analysis=base_spec.analysis.with_seed(None))
        axes = {"pipeline.n_stages": [2, 3]}
        session = Session(root_seed=7)
        serial = ScenarioSweep(spec, axes).run(session=session)
        parallel = ScenarioSweep(spec, axes).run(
            session=Session(root_seed=7), n_jobs=2
        )
        assert serial.reports() == parallel.reports()
        assert [p.spec.analysis.seed for p in serial] == [
            p.spec.analysis.seed for p in parallel
        ]

    def test_run_sweep_facade_and_records(self, base_spec):
        result = run_sweep(
            base_spec.replace(target_yield=0.9),
            {"variation.sigma_scale": [0.5, 1.0]},
            session=Session(),
        )
        records = result.to_records()
        assert len(records) == 2
        assert records[0]["variation.sigma_scale"] == 0.5
        assert "pipeline_mean_ps" in records[0]
        assert "delay_at_target_yield" in records[0]
        # higher variation -> higher variability
        assert records[1]["variability"] > records[0]["variability"]
        table = result.format(title="sweep")
        assert "variation.sigma_scale" in table

    def test_format_unions_headers_across_records(self, base_spec):
        result = run_sweep(
            base_spec,
            {"target_yield": [None, 0.9]},
            session=Session(),
            seed_policy="fixed",
        )
        table = result.format()
        assert "delay_at_target_yield" in table

    @pytest.mark.parametrize("policy", ["fixed", "spawn"])
    def test_backend_sweep_shares_characterisation(self, base_spec, policy):
        session = Session()
        ScenarioSweep(
            base_spec,
            {"analysis.backend": ["montecarlo", "analytic"]},
            seed_policy=policy,
        ).run(session=session)
        # Both points share one cached characterisation under either policy.
        assert (session.cache_hits, session.cache_misses) == (1, 1), policy

    def test_serial_and_parallel_default_the_bound_session_identically(
        self, base_spec
    ):
        """Both branches of ``run`` must resolve ``self.session`` the same
        way: with a None base seed, per-point seeds spawn from the *bound*
        session's root seed whether or not a pool is used."""
        spec = base_spec.replace(analysis=base_spec.analysis.with_seed(None))
        axes = {"pipeline.n_stages": [2, 3]}
        bound_serial = ScenarioSweep(spec, axes, session=Session(root_seed=7))
        bound_parallel = ScenarioSweep(spec, axes, session=Session(root_seed=7))
        serial = bound_serial.run()  # no explicit session either way
        parallel = bound_parallel.run(n_jobs=2)
        expected = [derive_seed(7, 0), derive_seed(7, 1)]
        assert [p.spec.analysis.seed for p in serial] == expected
        assert [p.spec.analysis.seed for p in parallel] == expected
        assert serial.reports() == parallel.reports()

    def test_run_attaches_an_execution_trace(self, base_spec):
        result = ScenarioSweep(
            base_spec, {"pipeline.n_stages": [2, 3]}, seed_policy="fixed"
        ).run(session=Session())
        trace = result.trace
        assert trace.pool_kind == "serial"
        assert trace.fallback_reason is None
        assert (trace.n_points, trace.n_completed, trace.n_failed) == (2, 2, 0)
        assert result.failures == ()
        assert result.ok == list(result)
        assert result.raise_on_failure() is result

    def test_study_sweep_binds_the_study_session(self, base_spec):
        study = Study(base_spec)
        study.run()
        assert study.session.cache_misses == 1
        sweep = study.sweep({"analysis.backend": ["analytic"]}, seed_policy="fixed")
        assert len(sweep) == 1
        sweep.run()
        # the sweep ran on the study's session and reused its characterisation
        assert (study.session.cache_hits, study.session.cache_misses) == (1, 1)


class TestWorkerSessionReuse:
    """The module-global worker session must be reused across payloads and
    rebuilt exactly when the dispatching session's parameters change."""

    @pytest.fixture(autouse=True)
    def fresh_worker_state(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_WORKER_SESSION", None)

    def test_reused_for_identical_parameters(self):
        technology = default_technology()
        first = _worker_session(technology, 7)
        assert executor_module._WORKER_SESSION is first
        assert _worker_session(technology, 7) is first

    def test_rebuilt_on_root_seed_change(self):
        technology = default_technology()
        first = _worker_session(technology, 7)
        second = _worker_session(technology, 8)
        assert second is not first
        assert second.root_seed == 8
        assert executor_module._WORKER_SESSION is second

    def test_rebuilt_on_technology_change(self):
        technology = default_technology()
        first = _worker_session(technology, 7)
        altered = dataclasses.replace(technology, vdd=technology.vdd * 1.1)
        second = _worker_session(altered, 7)
        assert second is not first
        assert second.technology == altered
        # and switching back rebuilds again (no multi-entry cache)
        third = _worker_session(technology, 7)
        assert third is not second

    def test_robust_worker_runs_on_the_worker_session(self, base_spec):
        payload = (0, base_spec, default_technology(), 7, None, None)
        status, index, report, _, wrote = _robust_worker(payload)
        assert (status, index, wrote) == ("ok", 0, False)
        worker = executor_module._WORKER_SESSION
        assert worker is not None and worker.root_seed == 7
        assert report == Session().analyze(base_spec)
        # a second payload with the same parameters reuses the session: the
        # cached report object comes back identically (not just equal)
        again = _robust_worker(payload)[2]
        assert again is report
        assert executor_module._WORKER_SESSION is worker

"""Property tests for incremental STA and the threaded kernel tier.

The incremental engine (:mod:`repro.timing.incremental`) claims *bit*
identity with the full kernels -- not approximate agreement -- because its
early cutoff only fires when a recomputed value equals the stored one
exactly.  Every assertion here is therefore ``np.array_equal`` (or ``==``),
never ``allclose``: a single ulp of drift in arrivals, required times,
loads or delays is a bug, and would also break the sizers' guarantee that
``incremental=True`` and ``incremental=False`` produce identical results.

The threaded kernel tier is exercised with a *forced* two-worker config so
the chunked code paths run even on single-core CI runners; speedup floors
live in the perf benchmarks, correctness lives here.
"""

import numpy as np
import pytest

from repro.circuit.generators import random_logic_block
from repro.optimize.greedy import GreedySizer
from repro.optimize.lagrangian import LagrangianSizer
from repro.pipeline.stage import PipelineStage
from repro.process.technology import default_technology
from repro.process.variation import VariationModel
from repro.timing.delay_model import GateDelayModel
from repro.timing.incremental import IncrementalTimer, SizingState
from repro.timing.kernels import (
    ENV_KERNEL,
    ENV_THREADS,
    KernelConfig,
    default_config,
    resolve_config,
    split_rows,
)
from repro.timing.ssta import StatisticalTimingAnalyzer
from repro.timing.sta import arrival_times, critical_path, max_delay, required_times

TECH = default_technology()
MODEL = GateDelayModel(TECH)

# Forced two-worker config: runs the chunked paths regardless of core count.
FORCED_THREADED = KernelConfig(kernel="threaded", threads=2, min_bytes=1, min_rows=1)


def make_block(seed: int, n_gates: int = 220, n_outputs: int = 5):
    """A reconvergent random DAG (random_logic re-uses fanin gates freely)."""
    return random_logic_block(
        f"blk{seed}",
        n_gates=n_gates,
        depth=max(4, n_gates // 20),
        n_inputs=7,
        n_outputs=n_outputs,
        seed=seed,
    )


# ----------------------------------------------------------------------
# IncrementalTimer: bit identity under randomized update sequences
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 7, 23, 91])
def test_incremental_timer_matches_full_sta(seed):
    block = make_block(seed)
    rng = np.random.default_rng(seed + 1000)
    delays = MODEL.nominal_delays(block, block.sizes())
    timer = IncrementalTimer(block, delays)
    target = 1.1 * timer.worst_arrival()
    for round_index in range(12):
        count = int(rng.integers(1, 15))
        gate_ids = rng.choice(block.n_gates, size=count, replace=False)
        delays = delays.copy()
        delays[gate_ids] *= rng.uniform(0.5, 1.8, size=count)
        timer.update_delays(gate_ids, delays[gate_ids])
        assert np.array_equal(timer.arrivals(), arrival_times(block, delays))
        assert timer.critical_path() == critical_path(block, delays)
        assert np.array_equal(
            timer.required(target), required_times(block, delays, target)
        )
    # The whole point: far fewer gates recomputed than 12 full passes.
    # (Wide cones may adaptively bail out to the full kernel -- that counts
    # as a full propagation -- but the sparse path must fire too and total
    # work must stay well below 12 full passes.)
    assert timer.incremental_propagations > 0
    assert timer.gates_recomputed < 12 * block.n_gates


def test_noop_invalidation_is_exact_and_cheap():
    block = make_block(5)
    delays = MODEL.nominal_delays(block, block.sizes())
    timer = IncrementalTimer(block, delays)
    before = timer.arrivals().copy()
    recomputed = timer.gates_recomputed
    # Invalidating without a delay change must re-derive identical values
    # and cut off at the frontier (no change ever propagates).
    timer.invalidate(np.arange(0, block.n_gates, 3))
    assert np.array_equal(timer.arrivals(), before)
    assert timer.gates_changed == 0
    assert timer.gates_recomputed > recomputed  # the dirty set was re-checked


def test_update_delays_diffing_skips_equal_values():
    block = make_block(6)
    delays = MODEL.nominal_delays(block, block.sizes())
    timer = IncrementalTimer(block, delays)
    timer.arrivals()
    # Writing the same values is a no-op: no dirty gates, no recompute.
    recomputed = timer.gates_recomputed
    timer.update_delays(np.arange(10), delays[:10])
    assert timer.gates_recomputed == recomputed
    assert np.array_equal(timer.arrivals(), arrival_times(block, delays))


def test_set_delays_full_replacement_matches():
    block = make_block(8)
    rng = np.random.default_rng(42)
    delays = MODEL.nominal_delays(block, block.sizes())
    timer = IncrementalTimer(block, delays)
    timer.arrivals()
    new = delays * rng.uniform(0.6, 1.5, size=block.n_gates)
    timer.set_delays(new)
    assert np.array_equal(timer.arrivals(), arrival_times(block, new))
    assert timer.critical_path() == critical_path(block, new)


def test_required_tracks_delay_updates_incrementally():
    block = make_block(13)
    rng = np.random.default_rng(77)
    delays = MODEL.nominal_delays(block, block.sizes())
    timer = IncrementalTimer(block, delays)
    target = 1.2 * timer.worst_arrival()
    assert np.array_equal(
        timer.required(target), required_times(block, delays, target)
    )
    for _ in range(8):
        gate_ids = rng.choice(block.n_gates, size=6, replace=False)
        delays = delays.copy()
        delays[gate_ids] *= rng.uniform(0.7, 1.4, size=6)
        timer.update_delays(gate_ids, delays[gate_ids])
        assert np.array_equal(
            timer.required(target), required_times(block, delays, target)
        )
    # Changing the target forces (and gets) a consistent full rebuild.
    other = 1.5 * target
    assert np.array_equal(
        timer.required(other), required_times(block, delays, other)
    )


def test_invalidate_rejects_out_of_range_ids():
    block = make_block(2, n_gates=40)
    timer = IncrementalTimer(block, MODEL.nominal_delays(block, block.sizes()))
    with pytest.raises(IndexError):
        timer.invalidate([block.n_gates])
    with pytest.raises(IndexError):
        timer.invalidate([-1])


# ----------------------------------------------------------------------
# SizingState: loads/delays/arrivals identical to from-scratch evaluation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 17])
def test_sizing_state_resize_matches_reference(seed):
    block = make_block(seed)
    state = SizingState(block, TECH)
    rng = np.random.default_rng(seed + 500)
    for _ in range(25):
        position = int(rng.integers(0, block.n_gates))
        state.resize(position, float(rng.uniform(1.0, 9.0)))
        assert np.array_equal(state.loads, block.load_capacitances(state.sizes))
        assert np.array_equal(
            state.delays, MODEL.nominal_delays(block, state.sizes)
        )
        assert np.array_equal(state.arrivals(), arrival_times(block, state.delays))
    assert state.total_area() == block.total_area(state.sizes)


@pytest.mark.parametrize("fraction", [0.02, 0.95])
def test_sizing_state_set_sizes_sparse_and_dense(fraction):
    block = make_block(3)
    state = SizingState(block, TECH)
    rng = np.random.default_rng(99)
    new_sizes = state.sizes.copy()
    count = max(1, int(block.n_gates * fraction))
    gate_ids = rng.choice(block.n_gates, size=count, replace=False)
    new_sizes[gate_ids] = rng.uniform(1.0, 10.0, size=count)
    state.set_sizes(new_sizes)
    assert np.array_equal(state.loads, block.load_capacitances(state.sizes))
    assert np.array_equal(state.delays, MODEL.nominal_delays(block, state.sizes))
    assert np.array_equal(state.arrivals(), arrival_times(block, state.delays))
    target = 1.05 * state.worst_arrival()
    assert np.array_equal(
        state.required(target), required_times(block, state.delays, target)
    )


def test_sizing_state_rejects_bad_sizes():
    block = make_block(4, n_gates=30)
    state = SizingState(block, TECH)
    with pytest.raises(ValueError):
        state.resize(0, 0.0)
    with pytest.raises(ValueError):
        state.set_sizes(np.zeros(block.n_gates))
    with pytest.raises(ValueError):
        state.set_sizes(np.ones(block.n_gates + 1))


# ----------------------------------------------------------------------
# Sizers: incremental=True must reproduce incremental=False exactly
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "sizer_cls,options",
    [
        (GreedySizer, {"max_moves": 50, "sigma_refresh": 20}),
        (LagrangianSizer, {"max_outer": 5}),
    ],
)
def test_sizer_incremental_matches_full(sizer_cls, options):
    variation = VariationModel()
    block = make_block(9, n_gates=260)
    stage = PipelineStage(name="s", netlist=block)
    reference = sizer_cls(TECH, variation, **options)
    target = reference.stage_distribution(stage).delay_at_yield(0.9) * 0.9
    result_inc = sizer_cls(TECH, variation, incremental=True, **options).size_stage(
        stage, target, 0.9, apply=False
    )
    result_full = sizer_cls(TECH, variation, incremental=False, **options).size_stage(
        stage, target, 0.9, apply=False
    )
    assert np.array_equal(result_inc.sizes, result_full.sizes)
    assert result_inc.iterations == result_full.iterations
    assert result_inc.area == result_full.area
    assert result_inc.achieved_yield == result_full.achieved_yield


# ----------------------------------------------------------------------
# Threaded kernel tier: chunked execution is bit-identical
# ----------------------------------------------------------------------
def test_threaded_2d_arrivals_bit_identical():
    block = make_block(11, n_gates=300)
    rng = np.random.default_rng(3)
    nominal = MODEL.nominal_delays(block, block.sizes())
    batch = nominal[None, :] * rng.uniform(0.7, 1.4, size=(96, block.n_gates))
    reference = arrival_times(block, batch, kernel="vectorized")
    assert np.array_equal(arrival_times(block, batch, kernel=FORCED_THREADED), reference)
    assert np.array_equal(arrival_times(block, batch), reference)  # auto
    assert np.array_equal(
        max_delay(block, batch, kernel=FORCED_THREADED),
        max_delay(block, batch),
    )


def test_threaded_ssta_components_bit_identical():
    block = make_block(12, n_gates=300)
    variation = VariationModel()
    reference = StatisticalTimingAnalyzer(TECH, variation, grid_size=8)
    threaded = StatisticalTimingAnalyzer(
        TECH, variation, grid_size=8, kernel=FORCED_THREADED
    )
    for fast, slow in zip(
        threaded.arrival_components(block), reference.arrival_components(block)
    ):
        assert np.array_equal(fast, slow)
    fast_form = threaded.combinational_delay(block)
    slow_form = reference.combinational_delay(block)
    assert fast_form.mean == slow_form.mean
    assert float(fast_form.sigma) == float(slow_form.sigma)


# ----------------------------------------------------------------------
# KernelConfig: selection rules and serialisation
# ----------------------------------------------------------------------
def test_kernel_config_resolution_rules():
    assert KernelConfig(kernel="vectorized", threads=8).resolve(1000, 8000) == 1
    forced = KernelConfig(kernel="threaded", threads=3)
    assert forced.resolve(1000, 8000) == 3
    assert forced.resolve(2, 8) == 2  # never more workers than rows
    assert forced.resolve(1, 8) == 1  # single row stays sequential
    auto = KernelConfig(kernel="auto", threads=4, min_rows=64, min_bytes=1 << 20)
    assert auto.resolve(32, 1 << 20) == 1  # too few rows
    assert auto.resolve(128, 16) == 1  # too small a problem
    assert auto.resolve(128, 1 << 16) == 4  # big enough on both axes


@pytest.mark.parametrize(
    "kernel, threads, n_rows, row_bytes, expected",
    [
        ("vectorized", 8, 1000, 1 << 20, 1),
        ("vectorized", 1, 0, 0, 1),
        ("threaded", 3, 0, 8, 1),
        ("threaded", 3, 1, 8, 1),
        ("threaded", 3, 2, 8, 2),
        ("threaded", 3, 10, 0, 3),
        ("threaded", 1, 1000, 1 << 20, 1),
        ("auto", 4, 1, 1 << 30, 1),
        ("auto", 4, 63, 1 << 20, 1),  # below min_rows
        ("auto", 4, 64, (1 << 15) - 1, 1),  # one byte per row short of min_bytes
        ("auto", 4, 64, 1 << 15, 4),  # both floors met exactly
        ("auto", 4, 4000, 528, 4),
        ("auto", 4, 1000, 528, 1),  # 528 kB, below min_bytes
        ("auto", 1, 1000, 1 << 20, 1),  # one worker
        ("auto", 8, 100, 1 << 20, 8),
        ("auto", 200, 100, 1 << 20, 100),  # capped by the row count
    ],
)
def test_kernel_config_resolution_table(kernel, threads, n_rows, row_bytes, expected):
    config = KernelConfig(kernel=kernel, threads=threads, min_rows=64, min_bytes=1 << 21)
    assert config.resolve(n_rows, row_bytes) == expected


def test_auto_floors_resolve_without_counting_cpus(monkeypatch):
    def no_cpu_count():
        raise AssertionError("os.cpu_count() queried for a level below the floors")

    monkeypatch.delenv(ENV_THREADS, raising=False)
    monkeypatch.setattr("os.cpu_count", no_cpu_count)
    config = KernelConfig()
    assert config.resolve(10, 8 * 66) == 1
    assert config.resolve(1000, 8) == 1


def test_kernel_config_validation():
    with pytest.raises(ValueError):
        KernelConfig(kernel="gpu")
    with pytest.raises(ValueError):
        KernelConfig(threads=0)
    with pytest.raises(TypeError):
        resolve_config(3.14)


def test_kernel_config_json_round_trip():
    config = KernelConfig(kernel="threaded", threads=2, min_bytes=64, min_rows=8)
    assert KernelConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ValueError):
        KernelConfig.from_dict({"kernel": "auto", "bogus": 1})


def test_kernel_config_env_defaults(monkeypatch):
    monkeypatch.setenv(ENV_KERNEL, "threaded")
    monkeypatch.setenv(ENV_THREADS, "5")
    config = default_config()
    assert config.kernel == "threaded"
    assert config.resolved_threads() == 5
    monkeypatch.delenv(ENV_KERNEL)
    assert default_config().kernel == "auto"
    assert resolve_config(None) == default_config()
    assert resolve_config("vectorized").kernel == "vectorized"
    assert resolve_config(config) is config


def test_split_rows_partitions_exactly():
    spans = split_rows(10, 3)
    assert spans[0][0] == 0 and spans[-1][1] == 10
    covered = [i for lo, hi in spans for i in range(lo, hi)]
    assert covered == list(range(10))
    assert split_rows(2, 8) == [(0, 1), (1, 2)]
    assert split_rows(5, 1) == [(0, 5)]

"""Property-based tests for the vectorized (compiled-schedule) timing kernels.

The seed's gate-at-a-time implementations survive in
:mod:`repro.timing.reference`; these tests assert the level-parallel kernels
in :mod:`repro.timing.sta` / :mod:`repro.timing.ssta` match them to 1e-12
relative (of the result's own scale) on random DAGs, and exercise the
structural edge cases the kernels must survive: gates with no gate fanins,
single-gate netlists, and netlists with no marked primary outputs.

The threaded kernel tier is exercised with a *forced* two-worker config so
the chunked code paths run even on single-core CI runners; speedup floors
live in the perf benchmarks, correctness lives here.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.flipflop import FlipFlopTiming
from repro.circuit.generators import inverter_chain, random_logic_block
from repro.circuit.netlist import Netlist
from repro.montecarlo.engine import MonteCarloEngine
from repro.timing.delay_model import GateDelayModel
from repro.timing.kernels import (
    ENV_KERNEL,
    ENV_THREADS,
    KernelConfig,
    default_config,
    resolve_config,
    split_rows,
)
from repro.timing.reference import (
    arrival_components_reference,
    arrival_times_reference,
    correlation_matrix_reference,
    required_times_reference,
)
from repro.timing.ssta import StatisticalTimingAnalyzer
from repro.timing.sta import arrival_times, critical_path, max_delay, required_times
from repro.process.technology import default_technology
from repro.process.variation import VariationModel


REL = 1e-12


def assert_matches(actual: np.ndarray, expected: np.ndarray) -> None:
    """Assert two kernel results agree to 1e-12 of the result's scale."""
    scale = float(np.abs(expected).max()) if expected.size else 1.0
    np.testing.assert_allclose(actual, expected, rtol=REL, atol=REL * max(scale, 1.0e-300))


def random_block(n_gates: int, seed: int, n_outputs: int = 3) -> Netlist:
    depth = max(2, n_gates // 5)
    return random_logic_block(
        "block",
        n_gates=n_gates,
        depth=depth,
        n_inputs=5,
        n_outputs=n_outputs,
        seed=seed,
    )


class TestDeterministicKernels:
    @given(
        st.integers(min_value=5, max_value=80),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_arrival_times_1d_matches_reference(self, n_gates, seed):
        block = random_block(n_gates, seed)
        delays = GateDelayModel(default_technology()).nominal_delays(block)
        assert_matches(arrival_times(block, delays), arrival_times_reference(block, delays))

    @given(
        st.integers(min_value=5, max_value=60),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=30, deadline=None)
    def test_arrival_times_2d_matches_reference(self, n_gates, seed, n_samples):
        block = random_block(n_gates, seed)
        rng = np.random.default_rng(seed)
        delays = rng.uniform(1e-12, 1e-10, size=(n_samples, block.n_gates))
        assert_matches(arrival_times(block, delays), arrival_times_reference(block, delays))

    @given(
        st.integers(min_value=5, max_value=60),
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.5, max_value=2.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_required_times_matches_reference(self, n_gates, seed, target_scale):
        block = random_block(n_gates, seed)
        delays = GateDelayModel(default_technology()).nominal_delays(block)
        target = target_scale * float(max_delay(block, delays))
        assert_matches(
            required_times(block, delays, target),
            required_times_reference(block, delays, target),
        )

    @given(
        st.integers(min_value=5, max_value=60),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=20, deadline=None)
    def test_critical_path_accepts_precomputed_arrivals(self, n_gates, seed):
        block = random_block(n_gates, seed)
        delays = GateDelayModel(default_technology()).nominal_delays(block)
        arrivals = arrival_times(block, delays)
        assert critical_path(block, delays, arrivals=arrivals) == critical_path(
            block, delays
        )


class TestStatisticalKernels:
    @given(
        st.integers(min_value=5, max_value=50),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=15, deadline=None)
    def test_arrival_components_match_reference(self, n_gates, seed):
        block = random_block(n_gates, seed)
        analyzer = StatisticalTimingAnalyzer(
            default_technology(), VariationModel.combined()
        )
        vec_mean, vec_sens, vec_rand = analyzer.arrival_components(block)
        ref_mean, ref_sens, ref_rand = arrival_components_reference(analyzer, block)
        assert_matches(vec_mean, ref_mean)
        assert_matches(vec_sens, ref_sens)
        assert_matches(vec_rand, ref_rand)

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=10, deadline=None)
    def test_correlation_matrix_matches_reference(self, n_stages, seed):
        analyzer = StatisticalTimingAnalyzer(
            default_technology(), VariationModel.combined()
        )
        forms = [
            analyzer.stage_delay(random_block(20, seed + index))
            for index in range(n_stages)
        ]
        matrix = analyzer.correlation_matrix(forms)
        assert_matches(matrix, correlation_matrix_reference(forms))
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 1.0)


class TestEdgeCases:
    def test_single_gate_netlist(self):
        netlist = Netlist("single")
        netlist.add_primary_input("a")
        netlist.add_gate("g", "INV", ["a"])
        netlist.mark_primary_output("g")
        delays = np.array([3.0])
        assert_matches(arrival_times(netlist, delays), np.array([3.0]))
        assert critical_path(netlist, delays) == ["g"]
        schedule = netlist.timing_schedule()
        assert schedule.n_levels == 1
        assert schedule.n_edges == 0

    def test_all_gates_empty_fanin(self):
        """Every gate driven only by primary inputs: one level, no edges."""
        netlist = Netlist("flat")
        netlist.add_primary_input("a")
        for index in range(4):
            netlist.add_gate(f"g{index}", "INV", ["a"])
        netlist.mark_primary_output("g0")
        delays = np.arange(1.0, 5.0)
        assert_matches(arrival_times(netlist, delays), delays)
        assert_matches(
            arrival_times(netlist, np.tile(delays, (3, 1))),
            np.tile(delays, (3, 1)),
        )
        required = required_times(netlist, delays, target=10.0)
        assert_matches(required, required_times_reference(netlist, delays, 10.0))

    def test_unmarked_outputs_fall_back_to_all_gates(self):
        netlist = Netlist("unmarked")
        netlist.add_primary_input("a")
        netlist.add_gate("g0", "INV", ["a"])
        netlist.add_gate("g1", "INV", ["g0"])
        delays = np.array([1.0, 2.0])
        assert max_delay(netlist, delays) == pytest.approx(3.0)
        assert critical_path(netlist, delays) == ["g0", "g1"]
        assert_matches(
            required_times(netlist, delays, target=3.0),
            required_times_reference(netlist, delays, 3.0),
        )

    def test_unmarked_outputs_ssta(self):
        netlist = Netlist("unmarked_ssta")
        netlist.add_primary_input("a")
        netlist.add_gate("g0", "INV", ["a"])
        netlist.add_gate("g1", "INV", ["g0"])
        analyzer = StatisticalTimingAnalyzer(
            default_technology(), VariationModel.combined()
        )
        form = analyzer.combinational_delay(netlist)
        ref_mean, _, _ = arrival_components_reference(analyzer, netlist)
        assert form.mean == pytest.approx(float(ref_mean.max()), rel=1e-12)

    def test_edge_free_netlist_loads_are_float(self):
        """bincount returns int64 for empty weighted input; loads must not."""
        chain = inverter_chain(1)
        loads = chain.load_capacitances()
        assert loads.dtype == np.float64
        assert loads[0] == pytest.approx(chain.default_output_load)

    def test_empty_netlist(self):
        netlist = Netlist("empty")
        netlist.add_primary_input("a")
        assert arrival_times(netlist, np.zeros(0)).shape == (0,)
        assert netlist.logic_depth() == 0
        assert netlist.timing_schedule().n_levels == 0

    @pytest.mark.parametrize("flipflop", [None, FlipFlopTiming()], ids=["bare", "ff"])
    def test_empty_netlist_ssta_matches_monte_carlo(self, flipflop):
        """No gates: zero combinational delay, the stage is the flip-flop alone."""
        netlist = Netlist("inputs_only")
        netlist.add_primary_input("a")
        netlist.add_primary_input("b")
        technology, variation = default_technology(), VariationModel.combined()
        analyzer = StatisticalTimingAnalyzer(technology, variation)
        form = analyzer.stage_delay(netlist, flipflop)
        engine = MonteCarloEngine(variation, technology, n_samples=4000, seed=3)
        result = engine.run_netlist(netlist, flipflop)
        if flipflop is None:
            assert (form.mean, form.sigma) == (0.0, 0.0)
            assert (result.mean, result.std) == (0.0, 0.0)
        else:
            assert form.mean == analyzer.flipflop_form(flipflop).mean
            assert form.mean == pytest.approx(result.mean, rel=0.02)
            assert form.sigma == pytest.approx(result.std, rel=0.05)

    def test_schedule_cache_reused_and_invalidated(self):
        netlist = inverter_chain(5)
        first = netlist.timing_schedule()
        assert netlist.timing_schedule() is first
        # Size mutations must not invalidate the compiled structure.
        netlist.set_sizes(2.0 * netlist.sizes())
        assert netlist.timing_schedule() is first
        # Structural edits must.
        netlist.add_gate("extra", "INV", ["inv4"])
        second = netlist.timing_schedule()
        assert second is not first
        assert second.version != first.version
        assert second.n_gates == 6

    def test_schedule_csr_matches_lists(self):
        block = random_block(40, seed=7)
        schedule = block.timing_schedule()
        fanins = block.fanin_indices()
        fanouts = block.fanout_indices()
        for gate_pos in range(block.n_gates):
            assert list(schedule.fanins_of(gate_pos)) == fanins[gate_pos]
            assert list(schedule.fanouts_of(gate_pos)) == fanouts[gate_pos]
        levels = block.levels()
        assert np.array_equal(levels, schedule.levels + 1)
        assert block.logic_depth() == schedule.n_levels


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

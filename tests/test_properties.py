"""Property-based tests (hypothesis) on the core statistical machinery.

These check the invariants the paper's derivations rely on, over broad,
randomly generated inputs: Clark's max dominates its inputs, yield models
are monotone and bounded, the design-space bounds nest correctly, and the
netlist/STA substrate preserves structural invariants under resizing.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.clark import max_of_gaussians, max_of_two_gaussians
from repro.core.design_space import DesignSpace
from repro.core.stage_delay import StageDelayDistribution
from repro.core.pipeline_delay import PipelineDelayModel
from repro.core.yield_model import (
    stage_yield_budget,
    yield_correlated,
    yield_independent,
)
from repro.circuit.generators import random_logic_block
from repro.timing.delay_model import GateDelayModel
from repro.timing.sta import arrival_times, max_delay
from repro.process.technology import default_technology
from repro.process.variation import VariationModel


# Delay-like magnitudes: picoseconds expressed in seconds.
means = st.floats(min_value=1e-11, max_value=1e-9)
sigmas = st.floats(min_value=0.0, max_value=5e-11)
correlations = st.floats(min_value=-0.999, max_value=0.999)
probabilities = st.floats(min_value=0.01, max_value=0.99)


class TestClarkProperties:
    @given(means, sigmas, means, sigmas, correlations)
    @settings(max_examples=200, deadline=None)
    def test_max_mean_dominates_inputs(self, m1, s1, m2, s2, rho):
        result = max_of_two_gaussians(m1, s1, m2, s2, rho)
        assert result.mean >= max(m1, m2) - 1e-15
        assert result.std >= 0.0

    @given(means, sigmas, means, sigmas, correlations)
    # A zero-sigma input 7.5 sigma above the other: taken about the origin,
    # the variance cancellation left ~1e-17 s of noise that differed by order.
    @example(8.246928377820121e-10, 0.0, 8.070449273029143e-10, 2.352301699479043e-12, 0.0)
    @settings(max_examples=200, deadline=None)
    def test_max_is_symmetric(self, m1, s1, m2, s2, rho):
        forward = max_of_two_gaussians(m1, s1, m2, s2, rho)
        backward = max_of_two_gaussians(m2, s2, m1, s1, rho)
        # When one variable dominates by many sigmas the max's variance is
        # computed as a difference of nearly equal quantities, so allow an
        # absolute floor proportional to the input scale in the sigma check.
        sigma_floor = 1e-6 * (s1 + s2) + 1e-18
        assert forward.mean == pytest.approx(backward.mean, rel=1e-7, abs=1e-18)
        assert forward.std == pytest.approx(backward.std, rel=1e-6, abs=sigma_floor)

    @given(means, sigmas, means, sigmas, correlations, st.floats(min_value=1e-12, max_value=1e-10))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, m1, s1, m2, s2, rho, shift):
        """max(X1+c, X2+c) = max(X1, X2) + c."""
        base = max_of_two_gaussians(m1, s1, m2, s2, rho)
        shifted = max_of_two_gaussians(m1 + shift, s1, m2 + shift, s2, rho)
        # As in the symmetry test, the sigma of a strongly dominated max is a
        # near-cancellation, so give it an absolute floor tied to the scale.
        sigma_floor = 1e-6 * (s1 + s2) + 1e-16
        assert shifted.mean == pytest.approx(base.mean + shift, rel=1e-9)
        assert shifted.std == pytest.approx(base.std, rel=1e-6, abs=sigma_floor)

    @given(
        st.lists(st.tuples(means, sigmas), min_size=2, max_size=8),
        st.floats(min_value=0.0, max_value=0.95),
    )
    @settings(max_examples=100, deadline=None)
    def test_n_variable_max_dominates_means(self, stages, rho):
        mu = np.array([m for m, _ in stages])
        sd = np.array([s for _, s in stages])
        corr = np.full((len(stages), len(stages)), rho)
        np.fill_diagonal(corr, 1.0)
        result = max_of_gaussians(mu, sd, corr)
        assert result.mean >= mu.max() - 1e-15
        assert np.isfinite(result.std)

    @given(st.lists(st.tuples(means, sigmas), min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_adding_a_variable_never_reduces_the_mean(self, stages):
        mu = np.array([m for m, _ in stages])
        sd = np.array([s for _, s in stages])
        full = max_of_gaussians(mu, sd)
        reduced = max_of_gaussians(mu[:-1], sd[:-1])
        # True for the exact max; Clark's moment matching can violate it by a
        # sliver (it replaces intermediate maxes with Gaussians), so allow a
        # small relative slack of the order of the approximation error.
        assert full.mean >= reduced.mean * (1.0 - 5e-3)


class TestYieldProperties:
    @given(
        st.lists(st.tuples(means, st.floats(min_value=1e-13, max_value=5e-11)),
                 min_size=1, max_size=8),
        st.floats(min_value=5e-11, max_value=2e-9),
    )
    @settings(max_examples=150, deadline=None)
    def test_independent_yield_bounded_and_below_worst_stage(self, stages, target):
        distributions = [StageDelayDistribution(m, s) for m, s in stages]
        value = yield_independent(distributions, target)
        assert 0.0 <= value <= 1.0
        worst_stage = min(d.yield_at(target) for d in distributions)
        assert value <= worst_stage + 1e-12

    @given(
        st.lists(st.tuples(means, st.floats(min_value=1e-13, max_value=5e-11)),
                 min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_yield_monotone_in_target(self, stages):
        distributions = [StageDelayDistribution(m, s) for m, s in stages]
        targets = np.linspace(5e-11, 1.5e-9, 7)
        values = [yield_independent(distributions, t) for t in targets]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @given(
        st.lists(st.tuples(means, st.floats(min_value=1e-13, max_value=5e-11)),
                 min_size=2, max_size=6),
        st.floats(min_value=0.0, max_value=0.99),
        st.floats(min_value=1e-10, max_value=1e-9),
    )
    @settings(max_examples=100, deadline=None)
    def test_correlated_yield_bounded(self, stages, rho, target):
        distributions = [StageDelayDistribution(m, s) for m, s in stages]
        corr = np.full((len(stages), len(stages)), rho)
        np.fill_diagonal(corr, 1.0)
        value = yield_correlated(distributions, target, corr)
        assert 0.0 <= value <= 1.0

    @given(probabilities, st.integers(min_value=1, max_value=30))
    @settings(max_examples=100, deadline=None)
    def test_stage_yield_budget_roundtrip(self, pipeline_yield, n_stages):
        budget = stage_yield_budget(pipeline_yield, n_stages)
        assert budget >= pipeline_yield - 1e-12
        assert budget**n_stages == pytest.approx(pipeline_yield, rel=1e-9)

    @given(
        st.lists(st.tuples(means, st.floats(min_value=1e-13, max_value=5e-11)),
                 min_size=2, max_size=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_pipeline_estimate_mean_dominates_jensen_bound(self, stages):
        distributions = [StageDelayDistribution(m, s) for m, s in stages]
        estimate = PipelineDelayModel(distributions).estimate()
        assert estimate.mean >= estimate.jensen_lower_bound - 1e-15


class TestDesignSpaceProperties:
    @given(
        st.floats(min_value=1e-10, max_value=1e-9),
        probabilities,
        st.floats(min_value=0.0, max_value=5e-11),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_equality_bound_never_looser_than_relaxed(self, target, prob, sigma, n_stages):
        space = DesignSpace(target, prob)
        relaxed = space.relaxed_upper_bound(sigma)
        equality = space.equality_bound(sigma, n_stages)
        assert equality <= relaxed + 1e-12

    @given(
        st.floats(min_value=1e-10, max_value=1e-9),
        probabilities,
        st.floats(min_value=0.0, max_value=5e-11),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_equality_bound_monotone_in_stage_count(self, target, prob, sigma, n_stages):
        space = DesignSpace(target, prob)
        assert space.equality_bound(sigma, n_stages + 1) <= space.equality_bound(
            sigma, n_stages
        ) + 1e-12


class TestSubstrateProperties:
    @given(st.integers(min_value=10, max_value=60), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_random_blocks_are_well_formed(self, n_gates, seed):
        depth = max(2, n_gates // 6)
        block = random_logic_block(
            "b", n_gates=n_gates, depth=depth, n_inputs=5, n_outputs=3, seed=seed
        )
        assert block.n_gates == n_gates
        assert block.logic_depth() == depth
        assert len(block.topological_order()) == n_gates

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=1.0, max_value=8.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_arrival_times_monotone_under_uniform_upsizing_of_loads(self, seed, factor):
        """Scaling every size by the same factor never increases path delay."""
        technology = default_technology()
        block = random_logic_block(
            "b", n_gates=30, depth=6, n_inputs=5, n_outputs=3, seed=seed
        )
        model = GateDelayModel(technology)
        base = max_delay(block, model.nominal_delays(block))
        scaled = max_delay(
            block, model.nominal_delays(block, factor * block.sizes())
        )
        assert scaled <= base + 1e-15

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_arrival_times_nonnegative_and_bounded_by_sum(self, seed):
        technology = default_technology()
        block = random_logic_block(
            "b", n_gates=25, depth=5, n_inputs=4, n_outputs=3, seed=seed
        )
        delays = GateDelayModel(technology).nominal_delays(block)
        arrivals = arrival_times(block, delays)
        assert np.all(arrivals >= 0.0)
        assert arrivals.max() <= delays.sum() + 1e-18

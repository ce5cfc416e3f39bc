"""The standard-normal helper behind every Clark max.

:func:`repro.core.clark.standard_normal` replaces ``scipy.stats.norm.cdf`` /
``.pdf`` on the hot paths.  It must return the very same bits, for arrays
and for scalars, and the SSTA engine, the Clark core and the sizers must no
longer reach the ``rv_continuous`` wrappers at all.
"""

import numpy as np
import pytest
import scipy.stats._distn_infrastructure as distn
from scipy.stats import norm

from repro.circuit.flipflop import FlipFlopTiming
from repro.circuit.generators import random_logic_block
from repro.core.clark import max_of_gaussians, standard_normal
from repro.optimize.lagrangian import LagrangianSizer
from repro.pipeline.stage import PipelineStage
from repro.process.technology import default_technology
from repro.process.variation import VariationModel
from repro.timing.ssta import StatisticalTimingAnalyzer

GRID = np.concatenate(
    [
        [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -5e-324],
        np.linspace(-40.0, 40.0, 4001),
    ]
)


def draws() -> np.ndarray:
    return np.random.default_rng(20050307).normal(0.0, 3.0, 50_000)


def test_grid_matches_scipy_bit_for_bit():
    cdf, pdf = standard_normal(GRID)
    assert np.array_equal(cdf, norm.cdf(GRID), equal_nan=True)
    assert np.array_equal(pdf, norm.pdf(GRID), equal_nan=True)


def test_random_batch_matches_scipy_bit_for_bit():
    x = draws()
    cdf, pdf = standard_normal(x)
    assert np.array_equal(cdf, norm.cdf(x))
    assert np.array_equal(pdf, norm.pdf(x))


def test_scalars_match_scipy_bit_for_bit():
    # One call per value: phi computed on a NumPy scalar (or with math.exp)
    # would differ from scipy's array evaluation in the last bit here.
    x = np.concatenate([GRID, draws()])
    pairs = [standard_normal(float(value)) for value in x]
    assert all(type(c) is float and type(p) is float for c, p in pairs)
    cdf, pdf = (np.array(column) for column in zip(*pairs))
    assert np.array_equal(cdf, norm.cdf(x), equal_nan=True)
    assert np.array_equal(pdf, norm.pdf(x), equal_nan=True)


def test_array_shape_is_kept():
    cdf, pdf = standard_normal(np.zeros((2, 3)))
    assert cdf.shape == pdf.shape == (2, 3)


def test_hot_paths_bypass_scipy_distribution_wrappers(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("scipy.stats rv_continuous.cdf/pdf reached")

    monkeypatch.setattr(distn.rv_continuous, "cdf", forbidden)
    monkeypatch.setattr(distn.rv_continuous, "pdf", forbidden)
    with pytest.raises(AssertionError):
        norm.cdf(0.0)

    technology, variation = default_technology(), VariationModel.combined()
    block = random_logic_block("blk", n_gates=40, depth=8, n_inputs=6, n_outputs=4, seed=7)
    form = StatisticalTimingAnalyzer(technology, variation).stage_delay(
        block, FlipFlopTiming()
    )
    assert form.sigma > 0.0

    correlations = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])
    result = max_of_gaussians(np.array([1.0, 1.1, 0.9]), np.full(3, 0.1), correlations)
    assert result.mean > 1.1

    stage = PipelineStage(name="blk", netlist=block, flipflop=FlipFlopTiming())
    sizer = LagrangianSizer(technology, variation)
    target = 0.85 * sizer.stage_distribution(stage).delay_at_yield(0.93)
    sized = sizer.size_stage(stage, target, 0.93, apply=False)
    assert sized.achieved_yield > 0.0

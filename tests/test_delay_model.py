"""Tests for repro.timing.delay_model."""

import numpy as np
import pytest

from repro.circuit.generators import inverter_chain
from repro.process.variation import VariationModel
from repro.timing.delay_model import GateDelayModel


class TestNominalDelays:
    def test_shape_and_positivity(self, technology, small_chain):
        model = GateDelayModel(technology)
        delays = model.nominal_delays(small_chain)
        assert delays.shape == (small_chain.n_gates,)
        assert np.all(delays > 0.0)

    def test_chain_interior_delays_identical(self, technology):
        chain = inverter_chain(5)
        model = GateDelayModel(technology)
        delays = model.nominal_delays(chain)
        # All interior inverters drive one identical inverter, so their
        # delays must match; only the last gate (default output load) differs.
        assert np.allclose(delays[:-1], delays[0])

    def test_upsizing_a_gate_reduces_its_own_delay(self, technology, small_chain):
        model = GateDelayModel(technology)
        sizes = small_chain.sizes()
        base = model.nominal_delays(small_chain, sizes)
        sizes_up = sizes.copy()
        sizes_up[-1] = 4.0
        fast = model.nominal_delays(small_chain, sizes_up)
        assert fast[-1] < base[-1]

    def test_upsizing_a_gate_slows_its_driver(self, technology, small_chain):
        model = GateDelayModel(technology)
        sizes = small_chain.sizes()
        base = model.nominal_delays(small_chain, sizes)
        sizes_up = sizes.copy()
        sizes_up[3] = 4.0
        after = model.nominal_delays(small_chain, sizes_up)
        assert after[2] > base[2]

    def test_rejects_nonpositive_sizes(self, technology, small_chain):
        model = GateDelayModel(technology)
        with pytest.raises(ValueError):
            model.nominal_delays(small_chain, np.zeros(small_chain.n_gates))

    def test_fo1_inverter_delay_in_expected_range(self, technology):
        chain = inverter_chain(3)
        model = GateDelayModel(technology)
        delays = model.nominal_delays(chain)
        # A fanout-of-1 inverter in a 70 nm-like node is of order 10 ps.
        assert 3e-12 < delays[0] < 40e-12


class TestDriveFactors:
    def test_nominal_is_unity(self, technology):
        model = GateDelayModel(technology)
        assert model.drive_factors(np.array([technology.vth0]))[0] == pytest.approx(1.0)

    def test_monotonic_in_vth(self, technology):
        model = GateDelayModel(technology)
        vth = np.array([0.15, 0.2, 0.25, 0.3])
        factors = model.drive_factors(vth)
        assert np.all(np.diff(factors) > 0.0)

    def test_rejects_vth_at_supply(self, technology):
        model = GateDelayModel(technology)
        with pytest.raises(ValueError):
            model.drive_factors(np.array([technology.vdd]))

    def test_length_scaling(self, technology):
        model = GateDelayModel(technology)
        factor = model.drive_factors(
            np.array([technology.vth0]), np.array([1.3 * technology.lmin])
        )
        assert factor[0] == pytest.approx(1.3)


class TestDelaySamples:
    def test_shape(self, technology, small_chain, rng):
        model = GateDelayModel(technology)
        vth = np.full((10, small_chain.n_gates), technology.vth0)
        samples = model.delay_samples(model.nominal_delays(small_chain), vth)
        assert samples.shape == (10, small_chain.n_gates)

    def test_nominal_samples_match_nominal_delays(self, technology, small_chain):
        model = GateDelayModel(technology)
        nominal = model.nominal_delays(small_chain)
        vth = np.full((3, small_chain.n_gates), technology.vth0)
        samples = model.delay_samples(nominal, vth)
        assert np.array_equal(samples, np.broadcast_to(nominal, samples.shape))

    def test_shape_mismatch_rejected(self, technology, small_chain):
        model = GateDelayModel(technology)
        with pytest.raises(ValueError):
            model.delay_samples(model.nominal_delays(small_chain), np.zeros((5, 3)))


class TestSensitivities:
    def test_components_present_and_positive(self, technology, small_chain):
        model = GateDelayModel(technology)
        coeffs = model.sensitivity_coefficients(small_chain, VariationModel.combined())
        for key in ("mean", "sigma_inter", "sigma_systematic", "sigma_random"):
            assert np.all(coeffs[key] >= 0.0)
        assert np.all(coeffs["mean"] > 0.0)

    def test_zero_variation_gives_zero_sigmas(self, technology, small_chain):
        model = GateDelayModel(technology)
        silent = VariationModel(
            sigma_vth_inter=0.0,
            sigma_vth_random=0.0,
            sigma_vth_systematic=0.0,
            sigma_l_inter=0.0,
            sigma_l_systematic=0.0,
        )
        coeffs = model.sensitivity_coefficients(small_chain, silent)
        assert np.all(coeffs["sigma_inter"] == 0.0)
        assert np.all(coeffs["sigma_random"] == 0.0)
        assert np.all(coeffs["sigma_systematic"] == 0.0)

    def test_random_sigma_shrinks_with_size(self, technology, small_chain):
        model = GateDelayModel(technology)
        variation = VariationModel.intra_random_only(0.03)
        base = model.sensitivity_coefficients(small_chain, variation)
        big = model.sensitivity_coefficients(
            small_chain, variation, sizes=4.0 * small_chain.sizes()
        )
        # Relative random sigma (sigma / mean) falls as 1/sqrt(size).
        relative_base = base["sigma_random"] / base["mean"]
        relative_big = big["sigma_random"] / big["mean"]
        assert np.allclose(relative_big, relative_base / 2.0, rtol=1e-6)

    def test_inter_sigma_is_quadrature_of_parts(self, technology, small_chain):
        model = GateDelayModel(technology)
        coeffs = model.sensitivity_coefficients(small_chain, VariationModel.combined())
        expected = np.sqrt(
            coeffs["sigma_vth_inter"] ** 2 + coeffs["sigma_l_inter"] ** 2
        )
        assert np.allclose(coeffs["sigma_inter"], expected)

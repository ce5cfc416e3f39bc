"""Timing-analysis substrate.

* :mod:`repro.timing.delay_model` -- alpha-power-law gate delay model:
  nominal delays from the logical-effort RC parameterisation, plus
  vectorised evaluation under sampled threshold-voltage / channel-length
  deviations and first-order sensitivity extraction for statistical timing.
* :mod:`repro.timing.sta` -- deterministic static timing analysis (arrival
  times, maximum delay, critical path) over a :class:`~repro.circuit.netlist.Netlist`;
  also accepts per-sample delay matrices so the Monte-Carlo engine can reuse it.
* :mod:`repro.timing.ssta` -- block-based statistical static timing analysis
  using first-order canonical delay forms (global factors: inter-die Vth and
  length, principal components of the spatially correlated field; plus an
  independent random part) combined with Clark's max operator.
* :mod:`repro.timing.paths` -- critical-path extraction, slack and
  near-critical path counting.
* :mod:`repro.timing.kernels` -- kernel-tier selection
  (:class:`KernelConfig`): vectorized vs threaded row-chunked propagation
  with auto-selection by problem size.
"""

from repro.timing.delay_model import GateDelayModel
from repro.timing.kernels import KernelConfig
from repro.timing.sta import (
    arrival_times,
    critical_path,
    max_delay,
    required_times,
    slacks,
)
from repro.timing.ssta import CanonicalForm, StatisticalTimingAnalyzer

__all__ = [
    "GateDelayModel",
    "KernelConfig",
    "arrival_times",
    "max_delay",
    "critical_path",
    "required_times",
    "slacks",
    "CanonicalForm",
    "StatisticalTimingAnalyzer",
]

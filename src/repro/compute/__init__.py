"""Compute-cost models — the substitute for the paper's Intel i9 testbed.

The paper measures each pipeline kernel's latency on real hardware and fits
the polynomial model of Eq. 4 to a profiled grid of precision/volume
combinations (<8% MSE).  Offline we cannot measure an i9 running OctoMap and
OMPL, so this package provides two layers that play the same two roles:

* :class:`~repro.compute.costs.WorkloadCostModel` — the "ground truth"
  substitute: converts the *work actually performed* by each kernel (pixels
  converted, map cells updated, planner iterations, bytes communicated) into
  seconds using per-operation costs calibrated so the static baseline's
  end-to-end latency lands in the multi-second range the paper reports.
  The mission simulator charges this model's output against the simulated
  clock.
* :class:`~repro.compute.latency_model.StageLatencyModel` — Eq. 4 itself:
  ``δ_i(p_i, v_i) = (q0·p̂³ + q1·p̂² + q2·p̂)(q3·v_i)`` with ``p̂ = 1/p``.
  The governor's solver uses this model, and
  :func:`~repro.compute.latency_model.fit_stage_model` reproduces the paper's
  calibration step by fitting the coefficients to a profiled grid generated
  from the workload cost model.
"""

from repro.compute.costs import KernelWork, WorkloadCostModel
from repro.compute.latency_model import (
    PipelineLatencyModel,
    StageLatencyModel,
    fit_stage_model,
)

__all__ = [
    "KernelWork",
    "PipelineLatencyModel",
    "StageLatencyModel",
    "WorkloadCostModel",
    "fit_stage_model",
]

"""The paper's per-stage latency model (Equation 4) and its calibration.

Equation 4 models each application-layer stage's latency as a function of its
precision and volume knobs:

    δ_i(p_i, v_i) = (q_{i,0} p̂_i³ + q_{i,1} p̂_i² + q_{i,2} p̂_i) · (q_{i,3} v_i)

with p̂ = 1/p ("this change of variables improves the numerical conditioning
of the optimization problem").  The governor's solver evaluates this model
when choosing knob settings, exactly as the paper does.

The paper obtains the coefficients by profiling "a representative set of
precision-volume combinations" and fitting the polynomial with <8% average
MSE.  :func:`fit_stage_model` reproduces that calibration step: it takes a
profiled grid (produced offline from the
:class:`~repro.compute.costs.WorkloadCostModel` by running the real kernels at
each combination) and least-squares fits the four coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

# Stage indices used by the solver, matching the paper's i = 0, 1, 2.
STAGE_PERCEPTION = "perception"
STAGE_PERCEPTION_TO_PLANNING = "perception_to_planning"
STAGE_PLANNING = "planning"
SOLVER_STAGES: Tuple[str, str, str] = (
    STAGE_PERCEPTION,
    STAGE_PERCEPTION_TO_PLANNING,
    STAGE_PLANNING,
)


@dataclass(frozen=True, slots=True)
class StageLatencyModel:
    """Equation 4 for one pipeline stage.

    Attributes:
        q0, q1, q2: coefficients on p̂³, p̂² and p̂.
        q3: volume coefficient (latency scales linearly with volume).
    """

    q0: float
    q1: float
    q2: float
    q3: float

    def latency(self, precision: float, volume: float) -> float:
        """Predicted latency (seconds) at the given precision (m) and volume (m³)."""
        if precision <= 0:
            raise ValueError("precision must be positive")
        if volume < 0:
            raise ValueError("volume cannot be negative")
        p_hat = 1.0 / precision
        precision_term = self.q0 * p_hat**3 + self.q1 * p_hat**2 + self.q2 * p_hat
        return max(0.0, precision_term * (self.q3 * volume))

    def __call__(self, precision: float, volume: float) -> float:
        return self.latency(precision, volume)


# Default per-stage coefficients, calibrated against the WorkloadCostModel
# defaults so that the static baseline (0.3 m precision, Table II volumes)
# lands in the multi-second latency regime the paper's Figure 11 shows.
DEFAULT_STAGE_MODELS: Dict[str, StageLatencyModel] = {
    # Perception (OctoMap insertion): dominated by cells updated, which grow
    # cubically as the voxel size shrinks and linearly with observed volume.
    STAGE_PERCEPTION: StageLatencyModel(q0=1.2e-3, q1=1.0e-4, q2=1.0e-5, q3=1.0e-3),
    # Perception→planning: sub-sampling and serialising the tree; slightly
    # cheaper per cell than insertion.
    STAGE_PERCEPTION_TO_PLANNING: StageLatencyModel(
        q0=4.0e-4, q1=5.0e-5, q2=5.0e-6, q3=4.0e-4
    ),
    # Planning: collision checks per sampled state grow with map precision and
    # the explored volume.
    STAGE_PLANNING: StageLatencyModel(q0=6.0e-4, q1=8.0e-5, q2=8.0e-6, q3=6.0e-4),
}


@dataclass(frozen=True, slots=True)
class LatencyProfileSample:
    """One profiled (precision, volume) → latency observation for a stage."""

    precision: float
    volume: float
    latency: float

    def __post_init__(self) -> None:
        if self.precision <= 0:
            raise ValueError("profiled precision must be positive")
        if self.volume < 0:
            raise ValueError("profiled volume cannot be negative")
        if self.latency < 0:
            raise ValueError("profiled latency cannot be negative")


def fit_stage_model(samples: Sequence[LatencyProfileSample]) -> StageLatencyModel:
    """Least-squares fit of the Eq. 4 coefficients to profiled samples.

    The model is bilinear in ``(q0, q1, q2)`` and ``q3``; following the paper
    we absorb ``q3`` into a single linear system by fitting the products
    ``q0·q3, q1·q3, q2·q3`` against features ``p̂³·v, p̂²·v, p̂·v`` and then
    reporting ``q3 = 1`` with the products folded into ``q0..q2``.  The
    resulting model predicts identical latencies, which is all the solver
    needs.

    Raises:
        ValueError: when fewer than four samples are provided (the system
            would be under-determined).
    """
    if len(samples) < 4:
        raise ValueError("need at least four profiled samples to fit Eq. 4")
    features = []
    targets = []
    for sample in samples:
        p_hat = 1.0 / sample.precision
        features.append(
            [
                p_hat**3 * sample.volume,
                p_hat**2 * sample.volume,
                p_hat * sample.volume,
            ]
        )
        targets.append(sample.latency)
    design = np.asarray(features, dtype=float)
    observed = np.asarray(targets, dtype=float)
    coeffs, *_ = np.linalg.lstsq(design, observed, rcond=None)
    return StageLatencyModel(
        q0=float(coeffs[0]), q1=float(coeffs[1]), q2=float(coeffs[2]), q3=1.0
    )


def model_mse(
    model: StageLatencyModel, samples: Sequence[LatencyProfileSample]
) -> float:
    """Relative mean squared error of a fitted model on profiled samples.

    Mirrors the paper's "<8% average MSE" quality metric: errors are expressed
    relative to the observed latency so the figure is comparable across
    stages with different absolute magnitudes.
    """
    if not samples:
        raise ValueError("need at least one sample")
    errors = []
    for sample in samples:
        predicted = model.latency(sample.precision, sample.volume)
        scale = max(sample.latency, 1e-9)
        errors.append(((predicted - sample.latency) / scale) ** 2)
    return float(sum(errors) / len(errors))


@dataclass(frozen=True, slots=True)
class PipelineLatencyModel:
    """End-to-end latency model across the three solver-visible stages.

    The solver's objective sums ``δ_i(p_i, v_i)`` over perception,
    perception→planning and planning; fixed costs that the knobs cannot change
    (the ~210 ms point-cloud conversion, RoboRun's ~50 ms runtime overhead and
    communication) are carried separately so the solver optimises only what it
    can influence while the governor still budgets for the full pipeline.
    """

    stages: Mapping[str, StageLatencyModel]
    fixed_overhead_s: float = 0.260

    def __post_init__(self) -> None:
        missing = [s for s in SOLVER_STAGES if s not in self.stages]
        if missing:
            raise ValueError(f"pipeline model is missing stages: {missing}")
        if self.fixed_overhead_s < 0:
            raise ValueError("fixed overhead cannot be negative")

    @staticmethod
    def default() -> "PipelineLatencyModel":
        """The default calibrated pipeline model."""
        return PipelineLatencyModel(stages=dict(DEFAULT_STAGE_MODELS))

    def stage_latency(self, stage: str, precision: float, volume: float) -> float:
        """Predicted latency of one stage at the given knob setting."""
        if stage not in self.stages:
            raise KeyError(f"unknown stage {stage!r}")
        return self.stages[stage].latency(precision, volume)

    def end_to_end(
        self,
        precisions: Mapping[str, float],
        volumes: Mapping[str, float],
        include_fixed: bool = True,
    ) -> float:
        """Predicted end-to-end latency for a full knob assignment."""
        total = self.fixed_overhead_s if include_fixed else 0.0
        for stage in SOLVER_STAGES:
            total += self.stage_latency(stage, precisions[stage], volumes[stage])
        return total


def profile_grid(
    latencies: Mapping[Tuple[float, float], float]
) -> List[LatencyProfileSample]:
    """Convert a {(precision, volume): latency} mapping into profile samples."""
    return [
        LatencyProfileSample(precision=p, volume=v, latency=latency)
        for (p, v), latency in sorted(latencies.items())
    ]

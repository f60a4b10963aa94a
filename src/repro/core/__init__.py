"""RoboRun — the paper's contribution.

The runtime layer sits between the application-layer navigation pipeline and
the hardware (Figure 6) and has three kinds of components:

* **Profilers** (:mod:`repro.core.profilers`) post-process each stage's data
  structures to extract the spatial features of Table I: gaps between
  obstacles, closest obstacle / closest unknown, sensor and map volume,
  velocity, position and the planned trajectory.
* **Governor** (:mod:`repro.core.governor`) — computes the decision deadline
  with the time-budgeting algorithm (Eq. 1–2, Algorithm 1 in
  :mod:`repro.core.budget`) and chooses per-stage precision/volume knobs with
  the constrained solver (Eq. 3–4, :mod:`repro.core.solver`).
* **Operators** (:mod:`repro.core.operators`) — enforce the chosen policy on
  the pipeline: point-cloud grid precision, OctoMap ray-caster step and
  insertion volume budget, perception→planning sub-sampling and pruning, and
  the planner's collision ray step and explored-volume monitor.

:class:`~repro.core.runtime.RoboRunRuntime` hosts the governor as the
spatial-aware runtime (the decision pipeline runs the profilers and the
operators around it), and :class:`~repro.core.baseline.SpatialObliviousRuntime`
is the static, worst-case baseline (MAVBench-style) it is compared against.
"""

from repro.core.baseline import SpatialObliviousRuntime
from repro.core.budget import TimeBudgeter
from repro.core.governor import Governor, GovernorDecision
from repro.core.operators import OperatorSet
from repro.core.policy import KnobLimits, KnobPolicy, STATIC_BASELINE_POLICY
from repro.core.profilers import ProfilerSuite, SpaceProfile
from repro.core.runtime import RoboRunRuntime
from repro.core.solver import KnobSolver, SolverResult

__all__ = [
    "Governor",
    "GovernorDecision",
    "KnobLimits",
    "KnobPolicy",
    "KnobSolver",
    "OperatorSet",
    "ProfilerSuite",
    "RoboRunRuntime",
    "STATIC_BASELINE_POLICY",
    "SolverResult",
    "SpaceProfile",
    "SpatialObliviousRuntime",
    "TimeBudgeter",
]

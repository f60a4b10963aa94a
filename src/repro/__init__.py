"""RoboRun reproduction: a spatial-aware robot runtime (DAC 2021).

The package reproduces "RoboRun: A Robot Runtime to Exploit Spatial
Heterogeneity" end to end in pure Python: the navigation pipeline
(point cloud → occupancy octree → RRT* → smoothing → control), the
simulated clock and stage accounting the runtime sits in, the
drone/energy/compute models the evaluation depends on, and — at its
centre — the RoboRun governor, profilers and operators plus the static
spatial-oblivious baseline it is compared against.  On top sit the procedural world library (:mod:`repro.worlds`:
archetype registry, heterogeneity fields, dynamic obstacles), the
scenario/campaign layer (declarative missions — single drone or an N-drone
fleet sharing one world and clock (:class:`~repro.simulation.fleet.
FleetSimulator`) — fanned across a process pool) and the analysis subsystem
(:mod:`repro.analysis`): structured mission traces, streaming JSONL trace
files, and the aggregators that fold traces into the paper's figures —
surfaced on the command line as ``python -m repro.report``.  The
observability layer (:mod:`repro.obs`) watches the runtime itself:
wall-clock spans with Chrome-trace export, a metrics registry with
Prometheus rendering, campaign heartbeats, and the ``python -m
repro.profile`` CLI — all opt-in and strictly off the data path.

Quick start::

    from repro import (
        EnvironmentConfig, EnvironmentGenerator, MissionConfig,
        MissionSimulator, RoboRunRuntime, SpatialObliviousRuntime,
    )

    env = EnvironmentGenerator().generate(EnvironmentConfig(goal_distance=150.0))
    result = MissionSimulator(env, RoboRunRuntime(), MissionConfig()).run()
    print(result.metrics.mission_time_s, result.metrics.mean_velocity_mps)
"""

from repro.analysis.figures import FigureTable
from repro.analysis.io import TraceReader, TraceWriter
from repro.analysis.recorder import TraceRecorder
from repro.analysis.report import CampaignReport
from repro.analysis.trace import DecisionRecord, MissionRecord
from repro.core.baseline import SpatialObliviousRuntime
from repro.core.budget import TimeBudgeter
from repro.core.governor import Governor, GovernorDecision
from repro.core.operators import OperatorSet
from repro.core.policy import KnobLimits, KnobPolicy, STATIC_BASELINE_POLICY
from repro.core.profilers import ProfilerSuite, SpaceProfile
from repro.core.runtime import RoboRunRuntime
from repro.core.solver import KnobSolver, SolverResult
from repro.environment.generator import (
    EnvironmentConfig,
    EnvironmentGenerator,
    GeneratedEnvironment,
)
from repro.middleware.topic import TopicNamespace
from repro.obs import (
    HeartbeatEmitter,
    HeartbeatRecord,
    MetricsRegistry,
    ObsTap,
    Tracer,
    configure_logging,
    get_logger,
)
from repro.simulation.campaign import (
    CAMPAIGN_MODES,
    CampaignResult,
    CampaignRunner,
    ScenarioOutcome,
)
from repro.simulation.faults import (
    CameraDegradation,
    CommsDropout,
    CommsLatencySpike,
    Fault,
    FaultSchedule,
    FaultSet,
    PowerBrownout,
    SensorDropout,
    StuckMover,
    ThermalThrottle,
    fault_names,
    register_fault,
)
from repro.simulation.fleet import FleetMetrics, FleetResult, FleetSimulator
from repro.simulation.orchestrator import FaultOrchestrator
from repro.simulation.metrics import MissionMetrics
from repro.simulation.mission import MissionConfig, MissionResult, MissionSimulator
from repro.simulation.pipeline import DecisionPipeline
from repro.simulation.scenario import ScenarioSpec, scenario_grid
from repro.worlds import (
    DynamicObstacleSet,
    HeterogeneityField,
    MoverSpec,
    WorldSpec,
    archetype_names,
    build_environment,
    register_archetype,
)

__version__ = "0.10.0"

__all__ = [
    "CAMPAIGN_MODES",
    "CameraDegradation",
    "CampaignReport",
    "CampaignResult",
    "CampaignRunner",
    "CommsDropout",
    "CommsLatencySpike",
    "DecisionPipeline",
    "DecisionRecord",
    "DynamicObstacleSet",
    "EnvironmentConfig",
    "FigureTable",
    "EnvironmentGenerator",
    "Fault",
    "FaultOrchestrator",
    "FaultSchedule",
    "FaultSet",
    "FleetMetrics",
    "FleetResult",
    "FleetSimulator",
    "GeneratedEnvironment",
    "Governor",
    "GovernorDecision",
    "HeartbeatEmitter",
    "HeartbeatRecord",
    "HeterogeneityField",
    "KnobLimits",
    "KnobPolicy",
    "KnobSolver",
    "MissionConfig",
    "MissionMetrics",
    "MissionRecord",
    "MissionResult",
    "MetricsRegistry",
    "MissionSimulator",
    "MoverSpec",
    "ObsTap",
    "OperatorSet",
    "PowerBrownout",
    "ProfilerSuite",
    "RoboRunRuntime",
    "STATIC_BASELINE_POLICY",
    "ScenarioOutcome",
    "ScenarioSpec",
    "SensorDropout",
    "SolverResult",
    "SpaceProfile",
    "SpatialObliviousRuntime",
    "StuckMover",
    "ThermalThrottle",
    "TimeBudgeter",
    "TopicNamespace",
    "TraceReader",
    "Tracer",
    "TraceRecorder",
    "TraceWriter",
    "WorldSpec",
    "__version__",
    "archetype_names",
    "build_environment",
    "configure_logging",
    "fault_names",
    "get_logger",
    "register_archetype",
    "register_fault",
    "scenario_grid",
]

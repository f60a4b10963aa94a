"""Mission simulation — the HIL-evaluation substitute.

The paper evaluates RoboRun with a hardware-in-the-loop setup: Unreal/AirSim
simulates the world and the drone while the navigation workload runs on a
separate machine.  This package replaces that loop with a deterministic,
simulated-clock decision pipeline:

* :mod:`repro.simulation.pipeline` — one decision as a call chain through
  the six stages (sense, profile, governor, perception, planning, flight),
  each taking the outputs it needs as arguments; the flight stage writes
  the decision's one record, stage latencies included, and the chain
  appends the decision's entries to the dispatch log.
* :mod:`repro.simulation.fleet` — the one decision loop: N drones'
  pipelines on one shared clock and dispatch log, one decision per drone
  per epoch, mission-level termination and metric assembly.
* :mod:`repro.simulation.mission` — one drone's kit (kernels, models,
  operator set) that builds its pipeline; :class:`MissionSimulator` flies
  it as a fleet of one.
* :mod:`repro.simulation.scenario` / :mod:`repro.simulation.campaign` — the
  declarative scenario layer: serialisable :class:`ScenarioSpec`s (with fault
  injection from :mod:`repro.simulation.faults`) fanned across worker
  processes by :class:`CampaignRunner` into an aggregated
  :class:`CampaignResult`; :mod:`repro.simulation.async_runner` is the
  persistent work-stealing engine behind every parallel campaign (per-spec
  timeouts, bounded retry, poisoned-spec exclusion).
* :mod:`repro.simulation.faults` / :mod:`repro.simulation.orchestrator` —
  the open fault library (registered fault classes acting at the sense
  boundary, the ``comm_*`` hops, the compute platform and the world's
  movers) and
  the per-mission :class:`FaultOrchestrator` that resolves timed
  :class:`FaultSchedule` activation/recovery windows against the mission
  seed.
"""

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
    get_fault,
    is_registered_fault,
    register_fault,
)
from repro.simulation.orchestrator import FaultOrchestrator
from repro.simulation.metrics import MissionMetrics
from repro.simulation.mission import MissionConfig, MissionResult, MissionSimulator
from repro.simulation.pipeline import (
    DecisionPipeline,
    FlightStage,
    PlanningStage,
    SenseStage,
)
from repro.simulation.scenario import ScenarioSpec, scenario_grid

__all__ = [
    "CAMPAIGN_MODES",
    "CameraDegradation",
    "CampaignResult",
    "CampaignRunner",
    "CommsDropout",
    "CommsLatencySpike",
    "DecisionPipeline",
    "Fault",
    "FaultOrchestrator",
    "FaultSchedule",
    "FaultSet",
    "FlightStage",
    "MissionConfig",
    "MissionMetrics",
    "MissionResult",
    "MissionSimulator",
    "PlanningStage",
    "PowerBrownout",
    "ScenarioOutcome",
    "ScenarioSpec",
    "SenseStage",
    "SensorDropout",
    "StuckMover",
    "ThermalThrottle",
    "fault_names",
    "get_fault",
    "is_registered_fault",
    "register_fault",
    "scenario_grid",
]

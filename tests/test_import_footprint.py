"""The package flies without scipy, whose import alone costs ~37 MiB of RSS."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

MISSION = """
import json, sys
from repro import (
    EnvironmentConfig, EnvironmentGenerator, MissionConfig, MissionSimulator,
    RoboRunRuntime,
)
env = EnvironmentGenerator().generate(EnvironmentConfig(
    obstacle_density=0.3, obstacle_spread=40.0, goal_distance=120.0, seed=11
))
result = MissionSimulator(env, RoboRunRuntime(), MissionConfig(max_decisions=5)).run()
print(json.dumps({
    "decisions": len(result.traces),
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""


def test_a_corridor_mission_loads_no_scipy():
    """``import repro`` plus a 5-decision corridor mission import no scipy module.

    The benchmark's ``peak_rss_mb`` has a 10% bound.  ``import scipy.spatial``
    alone raised a process's max RSS from 26.8 to 64.4 MiB (+37 MiB) on a
    2-CPU box, and adding only that import to the profiler module raised
    ``corridor_ab``'s ``peak_rss_mb`` from 50.1 to 82.7 MiB (+65%).  The
    mission runs in a fresh interpreter, so no module another test imported
    can hide or fake the result.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", MISSION],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["decisions"] == 5
    assert report["scipy"] == []

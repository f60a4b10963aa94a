"""Perception: point-cloud generation and occupancy mapping.

The paper's perception stage has two kernels (§III-A):

* the **Point cloud** kernel converts camera pixels into 3-D obstacle
  coordinates — :mod:`repro.perception.point_cloud`; and
* **OctoMap** accumulates point clouds into a 3-D occupancy map "encoded in a
  tree data structure where each leaf is a voxel" —
  :mod:`repro.perception.octomap`.

Both kernels expose the hooks the RoboRun precision and volume operators act
on: point-cloud grid resolution, ray-caster step size, map insertion volume
budget, and sub-sampling / volume bounding for the map handed to the planner.
"""

from repro.perception.octomap import OccupancyOctree
from repro.perception.planning_view import PlanningView, build_planning_view
from repro.perception.point_cloud import PointCloud, PointCloudKernel

__all__ = [
    "OccupancyOctree",
    "PlanningView",
    "PointCloud",
    "PointCloudKernel",
    "build_planning_view",
]

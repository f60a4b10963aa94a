"""Simulated sensors.

The paper's quadrotor carries "6 cameras, an IMU, and a GPS" (§III-A).  This
package provides the offline substitutes: a ray-casting depth camera whose
output feeds the point-cloud kernel, a six-camera rig giving near-360 degree
coverage, and the state estimate (the IMU/GPS reading of the drone's pose
and velocity, here the true state) that the profilers read.
"""

from repro.sensors.depth_camera import DepthCamera, DepthImage
from repro.sensors.rig import CameraRig, RigScan
from repro.sensors.state_sensors import StateEstimate

__all__ = [
    "CameraRig",
    "DepthCamera",
    "DepthImage",
    "RigScan",
    "StateEstimate",
]

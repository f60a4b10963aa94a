"""Control: trajectory tracking.

Control is not a RoboRun knob: neither the precision nor the volume
operators touch it.  Missions fly :class:`PurePursuitFollower`, which aims at
a look-ahead point on the smoother's trajectory at the governor's velocity
cap.  The paper tracks its trajectories with a PID controller; that
controller is not modelled here.
"""

from repro.control.follower import PurePursuitFollower

__all__ = ["PurePursuitFollower"]

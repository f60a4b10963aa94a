"""The stopping-distance model (paper Equation 2).

The time budget (Eq. 1) subtracts the distance the drone needs to come to a
stop from the visible distance ahead.  The paper models that stopping
distance as a quadratic in velocity fitted from simulation:

    d_stop(v) = -0.055 v^2 - 0.36 v + 0.20         (Eq. 2, 2% MSE)

The published coefficients produce *negative* distances for v > ~0.5 m/s,
which only makes sense if the fitted quantity is the (negative) displacement
along the braking axis or the axes were flipped; a physical stopping distance
must be non-negative and grow with speed.  We therefore keep the published
form available verbatim (``paper_form=True``) for completeness but default to
the magnitude interpretation ``|−0.055 v^2 − 0.36 v| + 0.20``, which is the
standard v²/(2a) braking curve plus a reaction offset and reproduces the
paper's qualitative behaviour (budget shrinks as velocity rises, Figure 2b).
The model can also be re-fitted against the kinematic drone model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.dynamics.drone import QuadrotorKinematics

# Published Eq. 2 coefficients (quadratic, linear, constant).
PAPER_COEFFICIENTS: Tuple[float, float, float] = (-0.055, -0.36, 0.20)


@dataclass(frozen=True, slots=True)
class StoppingDistanceModel:
    """Quadratic stopping-distance model ``d_stop(v) = a v^2 + b v + c``.

    Attributes:
        a, b, c: polynomial coefficients.
        paper_form: when True, :meth:`distance` evaluates the published
            polynomial verbatim (clamped at zero); when False (default) the
            magnitudes of the velocity terms are used so the distance grows
            with speed.
    """

    a: float = PAPER_COEFFICIENTS[0]
    b: float = PAPER_COEFFICIENTS[1]
    c: float = PAPER_COEFFICIENTS[2]
    paper_form: bool = False

    def distance(self, velocity: float) -> float:
        """Stopping distance in metres for a given speed in m/s."""
        if velocity < 0:
            raise ValueError("velocity cannot be negative")
        if self.paper_form:
            return max(0.0, self.a * velocity**2 + self.b * velocity + self.c)
        return abs(self.a) * velocity**2 + abs(self.b) * velocity + abs(self.c)

    def __call__(self, velocity: float) -> float:
        return self.distance(velocity)

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    @staticmethod
    def fit_from_kinematics(
        kinematics: QuadrotorKinematics,
        speeds: Optional[Sequence[float]] = None,
    ) -> "StoppingDistanceModel":
        """Fit the quadratic by measuring stopping distances on the drone model.

        Mirrors the paper's calibration procedure: fly at several velocities,
        measure the stopping distance, and least-squares fit a quadratic.
        """
        sample_speeds = list(speeds) if speeds is not None else [0.5 * k for k in range(1, 11)]
        if len(sample_speeds) < 3:
            raise ValueError("need at least three speeds to fit a quadratic")
        distances = [kinematics.stopping_distance(v) for v in sample_speeds]
        a, b, c = _fit_quadratic(sample_speeds, distances)
        return StoppingDistanceModel(a=a, b=b, c=c, paper_form=False)

    def mse_against(
        self, kinematics: QuadrotorKinematics, speeds: Sequence[float]
    ) -> float:
        """Mean squared error between the model and measured stopping distances."""
        if not speeds:
            raise ValueError("need at least one speed")
        errors = []
        for v in speeds:
            measured = kinematics.stopping_distance(v)
            errors.append((self.distance(v) - measured) ** 2)
        return sum(errors) / len(errors)


def _fit_quadratic(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float, float]:
    """Least-squares fit of ``y = a x^2 + b x + c`` via the normal equations."""
    design = np.vstack([np.square(xs), xs, np.ones(len(xs))]).T
    coeffs, *_ = np.linalg.lstsq(design, np.asarray(ys, dtype=float), rcond=None)
    return float(coeffs[0]), float(coeffs[1]), float(coeffs[2])

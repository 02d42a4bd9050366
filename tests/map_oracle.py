"""The impact map's Jacobian, the oracle that the map tests share.

Nothing in the package needs the matrix: ``lyapunov.map_lyapunov``
advances the tangent with a scalar loop.  ``test_synth`` checks this
matrix against finite differences of the map, and ``test_lyapunov``
advances the tangent by its rows as an independent route to the exponent.
"""

import math

import numpy as np

from wavescope.synth import BounceParams


def bounce_map_jacobian(phi_next: float, p: BounceParams) -> np.ndarray:
    """Jacobian of one impact-map step, evaluated at the updated phase."""
    s = p.amplitude * math.sin(phi_next)
    return np.array([[1.0, 1.0], [s, p.restitution + s]])

"""Shared test data."""
import math
import sys

import numpy as np
import pytest

from abmgrid.eos import PRESSURE_SCALE, _SERIES_CUTOFF, pressure_from_x


@pytest.fixture(scope="session")
def gas_pressures():
    """Pressures that reach every branch of the gas's inversion.

    About 2000 log-spaced across the whole double range, 5e-324 and the
    largest double included; 1000 each side of K * DBL_MIN (about
    1.53e-272, below which P / K underflows and x is rescaled); 2000
    within 1e-12 relative of the pressure at the series cutoff x = 0.3;
    and P = 0, of both signs.
    """
    spread = [2.0 ** float(e) for e in np.linspace(-1074.0, 1023.999, 1998)]
    edge = PRESSURE_SCALE * sys.float_info.min
    below, above = [edge], [edge]
    for _ in range(1000):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], math.inf))
    cutoff = pressure_from_x(_SERIES_CUTOFF)
    near_cutoff = np.linspace(cutoff * (1.0 - 1e-12), cutoff * (1.0 + 1e-12),
                              2000)
    return [0.0, -0.0, 5e-324, sys.float_info.max, *spread, *below[1:],
            *above, *near_cutoff.tolist()]

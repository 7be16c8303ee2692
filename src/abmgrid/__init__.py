"""Adams-Bashforth-Moulton integration on non-uniform grids.

The package provides a variable-step, variable-order predictor-corrector
ODE engine that carries a divided-difference table over the actual node
spacing from step to step, a quartic-derivative test problem with a
closed-form solution, and a relativistic stellar-structure application
(degenerate neutron gas) including a maximum-mass search.

Every public name of the five modules below is re-exported here.
"""
from . import eos, integrator, poly, quadrature, tov
from .quadrature import *  # noqa: F401,F403
from .integrator import *  # noqa: F401,F403
from .poly import *  # noqa: F401,F403
from .eos import *  # noqa: F401,F403
from .tov import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *quadrature.__all__, *integrator.__all__,
           *poly.__all__, *eos.__all__, *tov.__all__]

"""Guided probability-flow sampling with exact symplectic-adjoint gradients.

The pieces compose bottom-up: noise schedules and their sigma
reparameterization (schedule), noise predictors with exact VJP/JVPs
(models), the n-step clean-output estimator with checkpointing
(estimator), backward gradient solvers (adjoint), the guided sampling
loop with time travel (guidance), and the experiment harness with CLI
(harness, cli).  The package exports exactly the names in those modules'
__all__ lists; each name is declared once, by the module that defines it.
"""

__version__ = "0.1.0"

from .schedule import *
from .models import *
from .estimator import *
from .adjoint import *
from .guidance import *
from .harness import *

# Importing a submodule binds it as a package attribute, so each name below
# is that module.
__all__ = [
    "__version__",
    *schedule.__all__,
    *models.__all__,
    *estimator.__all__,
    *adjoint.__all__,
    *guidance.__all__,
    *harness.__all__,
]

"""Condition numbers of constant-rank elimination problems.

Compute, certify and empirically validate the sensitivity of solving a
system ``F(x, y, z) = c`` for an output ``y`` with a latent variable ``z``,
including Tucker tensor decomposition as a fully worked, cross-validated
problem family.  The package re-exports the ``__all__`` of each of its
library modules.
"""

from .crep import *
from .empirical import *
from .linalg import *
from .problems import *
from .tensor import *
from .tucker import *

__version__ = "0.1.0"

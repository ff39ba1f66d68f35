"""Bootstrap percolation on hypercubes.

Simulation of the r-neighbour bootstrap process on Q_d with a bit-parallel
update engine, the r-meta bootstrap label dynamics, a catalog of explicit
minimum percolating seeds with a recursive product assembler, and exact
integer bound evaluators.  The ``hqperc`` command line exposes the same
functionality; see the README for the file formats.
"""

from . import bootstrap, bounds, constructions, hypercube, meta
from .bootstrap import *
from .bounds import *
from .constructions import *
from .hypercube import *
from .meta import *

__version__ = "0.1.0"

__all__ = (
    bootstrap.__all__ + bounds.__all__ + constructions.__all__ + hypercube.__all__ + meta.__all__
)

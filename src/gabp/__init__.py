"""Vector Gaussian belief propagation for distributed linear estimation.

The package is a stack of modules, each its own API (``from gabp import engine``):

- ``cones``: positive definite cone primitives (Loewner order, part metric)
- ``network``: problem instances, validation, random generation, JSON io
- ``engine``: the message-passing recursions and synchronous schedule
- ``oracle``: centralized ground-truth posterior for cross-checking
- ``analysis``: the stacked information-matrix operator, cone bounds, and
  convergence diagnostics
- ``cli``: command line front end (``gabp gen|run|analyze|compare``)
"""

__version__ = "0.1.0"

"""capell: logarithmic capacity, band equilibrium measures, and integer
polynomials equidistributing on real interval unions.

The package exposes its modules only; import names from them, e.g.
``from capell.abel import solve_R``.
"""

from . import abel, capacity, core, pellabel, robinson, weil

__version__ = "0.1.0"

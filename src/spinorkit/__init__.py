"""Exact two-spinor geometry, Dirac algebra, tangent-valued forms and Fock operators.

The package is organized in layers:

* :mod:`spinorkit.exactfield` -- the coefficient field Q(i, sqrt2) and unit exponents
* :mod:`spinorkit.spintensor` -- two-spinor tensors, the symplectic form, Minkowski pairing
* :mod:`spinorkit.diracw` -- Dirac 4-spinors, the gamma map, adjoints, observers
* :mod:`spinorkit.fnforms` -- polynomial differential forms and the Frolicher-Nijenhuis bracket
* :mod:`spinorkit.fockalg` -- multi-particle states and the graded operator algebra
* :mod:`spinorkit.suites` -- seeded property suites behind the ``spinor-kit`` CLI
"""

from .exactfield import Scalar, UnitExponent, UnitMismatchError, format_scalar

__all__ = [
    "Scalar",
    "UnitExponent",
    "UnitMismatchError",
    "format_scalar",
]

__version__ = "0.1.0"

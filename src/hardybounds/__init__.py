"""Eigenvalue-count bounds for Schrodinger operators with critical Hardy and
iterated-log Hardy weights, together with the machinery to verify them:
coordinate transforms, adaptive quadrature, and tridiagonal eigenvalue
counting.

The package exports the names the README documents; everything else is
imported from its submodule (``hardybounds.spectra.lowest_eigenvalues``)."""

from .errors import DomainError, DepthCapError, EvaluationError
from .potentials import Potential, SquareWell, ZeroPotential, transform_potential
from .quadrature import QuadratureError, integrate, integrate_semiinfinite
from .bounds import OperatorSpec, bound_1d, central_bound, clr_bound
from .spectra import count_negative, total_central_count
from .testfunctions import bump

__version__ = "0.1.0"

__all__ = [
    "DepthCapError",
    "DomainError",
    "EvaluationError",
    "OperatorSpec",
    "Potential",
    "QuadratureError",
    "SquareWell",
    "ZeroPotential",
    "bound_1d",
    "bump",
    "central_bound",
    "clr_bound",
    "count_negative",
    "integrate",
    "integrate_semiinfinite",
    "total_central_count",
    "transform_potential",
]

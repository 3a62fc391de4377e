"""Exact invariants of monomial quiver algebras and the arrow-gluing construction."""

from .algebra import MonomialAlgebra, build
from .fields import GF, QQ, FieldSpec
from .gluing import GluedAlgebra, GluingSpec, glue
from .quiver import Path, Quiver, betti, compose, parallel

__all__ = [
    "FieldSpec",
    "QQ",
    "GF",
    "Quiver",
    "Path",
    "compose",
    "parallel",
    "betti",
    "MonomialAlgebra",
    "build",
    "GluedAlgebra",
    "GluingSpec",
    "glue",
]

__version__ = "0.1.0"

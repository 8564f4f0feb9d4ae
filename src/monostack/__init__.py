"""monostack: exact combinatorics of sharp affine monoids and their root levels.

The package computes with fine saturated sharp monoids given by integer
generators: saturation and Hilbert bases, Kummer homomorphisms and root
extensions (1/n)P, the Delta geometry with the infinite-quotient
recognition procedure, graded algebras k[(1/n)P]/(P+) with their module
categories over log points, monomial colon ideals with a coherence probe,
and parabolic sheaves with rational weights together with the
restriction/induction adjunction and the finite-presentation test.
"""

from .errors import (
    AlgebraMismatch,
    DimensionMismatch,
    EmptyGenerators,
    EnumerationBudget,
    IncompatibleFamily,
    InfiniteCokernel,
    LevelMismatch,
    MalformedInput,
    MonostackError,
    NotADivisor,
    NotAMultiple,
    NotExactInput,
    NotSaturated,
    NotSharp,
    RegionTooSmall,
    UnboundedRegion,
)
from .monoid import MonoidElement, MonoidPresentation, saturate, validate

__all__ = [
    "AlgebraMismatch",
    "DimensionMismatch",
    "EmptyGenerators",
    "EnumerationBudget",
    "IncompatibleFamily",
    "InfiniteCokernel",
    "LevelMismatch",
    "MalformedInput",
    "MonoidElement",
    "MonoidPresentation",
    "MonostackError",
    "NotADivisor",
    "NotAMultiple",
    "NotExactInput",
    "NotSaturated",
    "NotSharp",
    "RegionTooSmall",
    "UnboundedRegion",
    "saturate",
    "validate",
]

__version__ = "0.1.0"

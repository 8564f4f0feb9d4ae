"""Exception hierarchy shared by all monostack modules."""


class MonostackError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(MonostackError):
    """Vectors, matrices or cones with incompatible ambient dimensions."""


class UnboundedRegion(MonostackError):
    """The bounding functional is not strictly positive on the cone."""


class EmptyGenerators(MonostackError):
    """A monoid presentation needs at least one nonzero generator."""


class NotSharp(MonostackError):
    """The generated cone contains a line; only sharp monoids are supported."""


class NotSaturated(MonostackError):
    """Operation requires a saturated monoid presentation."""


class InfiniteCokernel(MonostackError):
    """The group cokernel of the homomorphism is not finite."""


class IncompatibleFamily(MonostackError):
    """Coset labels of a truncated profinite element violate divisibility."""


class NotExactInput(MonostackError):
    """The given three-term sequence is not exact degreewise."""


class AlgebraMismatch(MonostackError):
    """Graded modules over different algebras cannot be combined."""


class RegionTooSmall(MonostackError):
    """An ideal walk was asked for a region below its certified bound."""


class EnumerationBudget(MonostackError):
    """An enumeration would visit more points than its fixed budget."""


class LevelMismatch(MonostackError):
    """Parabolic/graded data at different root levels cannot be compared."""


class NotADivisor(MonostackError):
    """Restriction target level must divide the current level."""


class NotAMultiple(MonostackError):
    """Induction target level must be a multiple of the current level."""


class MalformedInput(MonostackError):
    """JSON input does not match the documented schema."""

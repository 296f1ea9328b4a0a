"""Exception hierarchy and warning types used across the package."""


class FanocheckError(Exception):
    """Base class for all package-specific errors."""


class ParseError(FanocheckError):
    """An input file is malformed and cannot be read."""


class ValidationError(FanocheckError):
    """Input is well-formed but violates a documented precondition."""


class InvalidDimension(ValidationError):
    """Requested or declared dimension is out of range."""


class NonPrimitiveVertex(ValidationError):
    """A vertex has coordinate gcd != 1 (includes the zero vector)."""


class DuplicateVertex(ValidationError):
    """The vertex list contains a repeated point."""


class DegenerateInput(ValidationError):
    """Vertices do not affinely span the ambient dimension."""


class OriginNotInterior(ValidationError):
    """Some facet inequality has offset <= 0, so 0 is not strictly inside."""


class RedundantVertex(ValidationError):
    """A listed vertex is a convex combination of the others."""


class NotReflexive(ValidationError):
    """Some facet lies at lattice distance != 1 from the origin."""


class NotSmooth(ValidationError):
    """Some facet is not a unimodular simplex."""


class DegenerateEdge(ValidationError):
    """Both endpoints of a segment coincide."""


class InvalidDiamond(ValidationError):
    """Hodge table is not symmetric, nonnegative, with h[0][0] = 1."""


class HypothesisViolated(ValidationError):
    """A Hodge diamond with odd cohomology was passed to a verifier that
    requires all odd-degree entries to vanish."""


class LengthMismatch(ValidationError):
    """A coefficient list does not have the expected length n + 1."""


class ConsistencyError(FanocheckError):
    """Computed invariants violate a structural identity that holds for
    every smooth reflexive input; indicates a bug, not bad data."""


class NegativeCoefficient(ConsistencyError):
    """A polynomial that must have nonnegative coefficients does not: a
    non-smooth or non-projective input got past the checks, which is a bug."""


class SerreDualityWarning(UserWarning):
    """Hodge table breaks the h[p][q] == h[n-p][n-q] symmetry.

    Formal tables are allowed to do this, so it is only a diagnostic.
    """

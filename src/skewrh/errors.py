"""Exception types shared across the package."""


class SkewRHError(Exception):
    """Base class for all package-specific failures."""


class SingularSystem(SkewRHError):
    """A linear solve met a pivot below the configured threshold."""


class QuadratureFailure(SkewRHError):
    """A lattice rule did not reach quad_tol: the tail bound for the
    truncation radius, the weight table's fine/coarse moment or pairing
    check, or the near-axis check against the coarse half-lattice."""


class IntegrabilityError(SkewRHError):
    """A potential does not define a finite weight (wrong degree/sign)."""


class MomentRangeExceeded(SkewRHError):
    """An inner product needs moments beyond the cached table."""


class DegenerateInnerProduct(SkewRHError):
    """Skew elimination hit a vanishing 2x2 pivot block."""


class NoConvergence(SkewRHError):
    """An iteration (root finding) exhausted its budget."""


class NotReal(SkewRHError):
    """An operation requiring real roots received complex ones."""


class UnsupportedRegime(SkewRHError):
    """Parameters outside the regime the construction covers (2k < d)."""

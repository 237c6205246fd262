"""Exception hierarchy shared by the whole package."""


class ReesgorError(Exception):
    """Base class for all package errors."""


class InputError(ReesgorError):
    """Malformed input document; carries (line, col) when known."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = "line %d, col %d: %s" % (line, col, message)
        super().__init__(message)


class OwnerMismatch(ReesgorError):
    """Operands belong to different rings."""


class NotDivisible(ReesgorError):
    """Exact division requested for a non-multiple."""


class NotParameters(ReesgorError):
    """The given elements do not form a system of parameters."""


class NotContained(ReesgorError):
    """Reduction test called with q not contained in the target ideal."""


class NotArtinian(ReesgorError):
    """A quotient or module is not finite dimensional over the base field."""


class NonPositiveWeight(ReesgorError):
    """A construction would introduce a variable of weight <= 0."""


class NotApplicable(ReesgorError):
    """Invariant undefined for this input (e.g. socle of a zero module)."""


class PairNotFound(ReesgorError):
    """No filter-regular pair found within the trial budget."""


class HypothesisNotVerified(ReesgorError):
    """Cohomology hypothesis profile or standardness check failed."""


class DepthNotOne(ReesgorError):
    """Operation requires depth exactly one."""


class WrongDimension(ReesgorError):
    """Operation requires a specific Krull dimension."""


class NoStabilization(ReesgorError):
    """Multiplicity difference scheme did not stabilize within the cap."""


class ResourceExceeded(ReesgorError):
    """A configured pair-queue or resolution cap was hit."""


class EquivalenceViolation(ReesgorError):
    """Two routes that must agree disagreed; certifies a bug, not math."""


def crosscheck(what, lhs, rhs):
    """Return lhs if two independent routes computed equal values.

    Otherwise raise EquivalenceViolation naming the check and both values.
    """
    if lhs != rhs:
        raise EquivalenceViolation("%s: routes disagree (%s != %s)"
                                   % (what, lhs, rhs))
    return lhs

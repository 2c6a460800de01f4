"""Exception hierarchy for the lie-induct engine.

Every domain error raised by the library derives from LieInductError so the
CLI can map them uniformly to exit code 1.
"""


class LieInductError(Exception):
    """Base class for all engine errors."""


class InvalidType(LieInductError):
    """Dynkin type outside the accepted family/rank ranges."""


class NotDominant(LieInductError):
    """A dominant weight was required."""


class NotACharacter(LieInductError):
    """The input is not a non-negative sum of irreducibles."""


class InvariantViolation(LieInductError):
    """An exact identity the engine relies on failed (convention or arithmetic bug)."""


class BudgetExceeded(LieInductError):
    """A request would exceed one of the engine's fixed caps: weights in an
    orbit or expansion, dominant weights of a character, or levels held by an
    induction search."""


class IrreducibilityMismatch(LieInductError):
    """The nonzero levels or the zero level's roots disagree with the residual algebra."""


class EmptyLevel(LieInductError):
    """Requested graded level contains no roots."""


class BijectionFailure(LieInductError):
    """A graded level's roots do not carry its module's weights, one each."""


class BadEmbedding(LieInductError):
    """Supplied node map is not a diagram embedding."""


class TrivialFirstLevel(LieInductError):
    """Induction started from the trivial module."""

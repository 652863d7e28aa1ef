"""Exception hierarchy shared by all modules."""


class AspExplainError(Exception):
    """Base class for every error raised by this package."""


# --- aspif parsing ---

class AspifError(AspExplainError):
    """Base class for errors in the aspif text itself."""


class MalformedHeader(AspifError):
    pass


class TruncatedStatement(AspifError):
    pass


class MissingTerminator(AspifError):
    pass


# --- program reconstruction ---

class ReconstructionError(AspExplainError):
    """Base class for errors while rebuilding rules from aspif statements."""


class MultiLiteralOutputCondition(ReconstructionError):
    pass


class DuplicateSymbol(ReconstructionError):
    pass


class UnsupportedWeightBody(ReconstructionError):
    pass


class AuxCycle(ReconstructionError):
    pass


# --- engines ---

class NotAnAnswerSet(AspExplainError):
    """The interpretation is not an answer set of the program."""


class NoSupport(NotAnAnswerSet):
    """An atom's value is not supported -- not an answer set: a true atom
    has no rule whose body holds, or a false atom is a fact or heads a
    non-choice rule whose body holds."""


class UnviolableConstraint(NotAnAnswerSet):
    """A constraint is violated but nothing in its body saves it."""


class UnknownLiteral(AspExplainError):
    """The queried literal names no atom, or has the wrong polarity for A."""


class NoValidGraph(AspExplainError):
    """Every expansion of the root violates a graph invariant."""


class TooLarge(AspExplainError):
    """An enumeration exceeded its configured cap."""

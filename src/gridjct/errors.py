"""Exception taxonomy.

Exit-code mapping used by the CLI: invalid or malformed instances exit 1,
theorem violations (which always indicate a bug, never a property of a valid
input) exit 2.
"""


class GridJctError(Exception):
    """Base class for all library errors."""


class InvalidInstance(GridJctError, ValueError):
    """Structurally invalid grid object (bad edge, bounds, degrees, ...)."""

    def __init__(self, message, *, edge_index=None):
        super().__init__(message)
        self.edge_index = edge_index


class FormatError(InvalidInstance):
    """Malformed JSON payload; ``edge_index`` points at the offending entry."""


class PreconditionViolation(GridJctError, ValueError):
    """A named operation precondition does not hold for the given input."""

    def __init__(self, condition, message=None):
        super().__init__(message or f"precondition violated: {condition}")
        self.condition = condition


class GenerationExhausted(GridJctError):
    """A seeded generator hit its attempt cap without producing an output."""


class SolverBudgetExhausted(GridJctError):
    """The satisfiability search hit its decision cap without a verdict."""


class TheoremViolation(GridJctError, RuntimeError):
    """A theorem- or lemma-guaranteed witness could not be produced (implementation bug)."""

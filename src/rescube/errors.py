"""Exception types shared across the library."""


class RescubeError(Exception):
    """Base class for all errors raised by this library."""


class NotBipartite(RescubeError):
    """The input graph contains an odd cycle."""


class EmbeddingInconsistent(RescubeError):
    """Face tracing contradicts Euler's relation on a connected component."""


class UnsupportedInput(RescubeError):
    """Input outside the supported graph class for this operation."""


class NoHandles(RescubeError):
    """Handle extraction on a graph whose components are all cycles."""


class NotAlternating(RescubeError):
    """A facial walk did not split into alternating interior/exterior handles."""


class NoPerfectMatching(RescubeError):
    """The graph has no perfect matching."""


class CapExceeded(RescubeError):
    """The graph has more perfect matchings than the enumeration cap."""


class BadSelector(RescubeError):
    """Unknown matching-subset selector."""


class NotFound(RescubeError):
    """An extremal matching required by the hypotheses does not exist or is not unique."""


class InternalInvariantBroken(RescubeError):
    """A state the theory rules out was observed; indicates a bug or a bad input."""


class NotReducibleAtStep(RescubeError):
    """A face order is not a reducible face decomposition at some step."""

    def __init__(self, step, reason=""):
        self.step = step
        self.reason = reason
        super().__init__(f"step {step}: {reason}" if reason else f"step {step}")


class PeelingStuck(RescubeError):
    """Greedy peeling found no reducible face; the graph is not elementary."""


class TheoremViolated(RescubeError):
    """An instance check of a decomposition clause failed (diagnostic)."""

    def __init__(self, clause, detail=""):
        self.clause = clause
        super().__init__(f"{clause}: {detail}" if detail else clause)


class LabelSetMismatch(RescubeError):
    """Per-matching labels disagree with the iterated label-set construction."""


class PropertyViolated(RescubeError):
    """A cross-checked coding property failed."""


class BadAttachment(RescubeError):
    """An attachment map is not of the required shape (each entry must point earlier)."""

"""Exception hierarchy. Negative mathematical results (a failed validation,
a found counterexample, an empty search) are return values, never exceptions;
these classes cover malformed input and violated preconditions."""


class SemiringError(Exception):
    pass


class ParseError(SemiringError):
    def __init__(self, message, line=None, source=None):
        self.line = line
        self.source = source
        where = ""
        if source is not None:
            where += str(source)
        if line is not None:
            where += f":{line}"
        super().__init__(f"{where}: {message}" if where else message)


class DimensionMismatch(SemiringError):
    pass


class OutOfRange(SemiringError):
    pass


class EmptySubset(SemiringError):
    pass


class BoundExceeded(SemiringError):
    pass


class SearchBoundExceeded(BoundExceeded):
    pass


class NotBiIdeal(SemiringError):
    pass


class NotCongruence(SemiringError):
    pass


class NotQuasiSkewRing(SemiringError):
    pass


class NotQuasiCompletelyRegular(SemiringError):
    pass


class PreconditionFailed(SemiringError):
    pass


class MalformedWitness(SemiringError):
    pass


class UnknownTheoremId(SemiringError):
    pass


class UnknownClassName(SemiringError):
    pass


class MissingMap(SemiringError):
    def __init__(self, alpha, beta):
        self.alpha = alpha
        self.beta = beta
        super().__init__(f"no map given for comparable pair ({alpha}, {beta})")


class OverlappingCarriers(SemiringError):
    pass


class NoProductWitness(SemiringError):
    pass


class DomainMismatch(SemiringError):
    pass


class InternalTheoremViolation(SemiringError):
    """A state the underlying theory rules out. Reaching this means either an
    implementation bug or a genuine counterexample; never swallowed."""


class DecompositionInvariantViolation(InternalTheoremViolation):
    """A decomposition invariant that the theory guarantees fails."""


class TheoremViolationWarning(UserWarning):
    """Emitted when two independently computed sides of a theorem disagree.

    Carries a machine-readable payload so sweeps can collect disagreements
    without parsing text.
    """

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload or {}


class SampleShortfallWarning(UserWarning):
    """Emitted when a seeded sample runs out of attempts before it has found
    as many distinct semirings as were requested; `requested` and `returned`
    give both counts."""

    def __init__(self, message, requested, returned):
        super().__init__(message)
        self.requested = requested
        self.returned = returned

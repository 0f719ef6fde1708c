"""Exception types shared across the package.

Every guard that the verifiers rely on raises one of these instead of
returning a number, so a silent wrong answer is never possible.
"""


class InputError(ValueError):
    """Malformed or inconsistent input data."""


class DegeneracyError(RuntimeError):
    """A covector or quadratic form failed an exact nondegeneracy test."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class DegenerateFunctionError(DegeneracyError):
    """A test function has a non-isolated critical locus on some stratum."""


class UnstableLevelError(RuntimeError):
    """A slicing level hits a vertex value, so the slice is combinatorially unstable."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class HypothesisViolationError(RuntimeError):
    """A theorem hypothesis fails; carries an exact witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class TransversalityError(HypothesisViolationError):
    """A hyperplane level passes through a vertex of the input complex."""


class BoundaryCollisionError(RuntimeError):
    """A perturbed critical point with nonzero multiplicity sits on the tube boundary."""


class NonConvergenceError(RuntimeError):
    """A verifier ran out of seeds; trace carries the rejection log."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace

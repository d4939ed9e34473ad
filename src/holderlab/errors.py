"""Exception types shared across the package."""


class HolderLabError(Exception):
    """Base class for all package-specific errors."""


class InadmissibleParameters(HolderLabError):
    """Integrability exponents violate the admissibility window.

    Carries the failed verdict so callers can report which condition broke.
    """

    def __init__(self, verdict):
        self.verdict = verdict
        failed = ", ".join(c.name for c in verdict.failed_conditions)
        super().__init__(f"inadmissible source integrability (failed: {failed})")


class MissingHomogeneousExponent(HolderLabError):
    """A homogeneous-case exponent is required but was not supplied."""


class NonPositiveRadius(HolderLabError, ValueError):
    pass


class InvalidScaleParameter(HolderLabError, ValueError):
    pass


class CylinderOutsideDomain(HolderLabError):
    pass


class ScaledDomainEscapes(HolderLabError):
    """The requested target grid maps outside the source field's domain."""


class OutOfDomain(HolderLabError):
    pass


class EmptyIntersection(HolderLabError):
    pass


class EvaluationFailure(HolderLabError):
    """A closed-form expression produced a non-finite value at a node."""


class BlowUp(HolderLabError):
    """The explicit scheme produced a non-finite value.

    ``step_index`` is the global sub-step at which the blow-up was detected.
    """

    def __init__(self, step_index, time):
        self.step_index = step_index
        self.time = time
        super().__init__(f"non-finite value at step {step_index} (t={time:.6g})")


class UnstableConfig(HolderLabError):
    """Internal sub-stepping exceeded the configured step budget."""


class OutsideValidity(HolderLabError):
    """A reference solution was evaluated outside its validity window."""


class GridTooCoarse(HolderLabError):
    pass


class InsufficientLevels(HolderLabError):
    pass


class AllZeroLevels(HolderLabError):
    """Every ladder level is numerically zero; a decay exponent is undefined."""


class SmallnessSearchFailed(HolderLabError):
    """Bisection could not reach the requested smallness regime."""


class IoFailure(HolderLabError):
    pass

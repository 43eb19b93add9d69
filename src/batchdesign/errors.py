"""Exception types shared across the package."""


class DesignError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(DesignError):
    """Shapes of atoms, weights, or Jacobians are incompatible."""


class SingularInformation(DesignError):
    """The assembled information matrix is numerically singular."""


class InfeasibleEpsilon(DesignError):
    """The weight cap is too small to carry total mass one (N * epsilon < 1)."""


class InfeasibleMass(DesignError):
    """Requested mass cannot be placed inside the capped box."""


class PositivityRepairFailed(DesignError):
    """No tried blend with the fallback measure produced a positive definite matrix."""


class NotPSD(DesignError):
    """A matrix atom has a meaningfully negative eigenvalue."""


class DegenerateCategory(DesignError):
    """A category probability underflowed; the information weight 1/pi is unusable."""


class ZeroVariance(DesignError):
    """A non-intercept feature column is constant and cannot be standardized."""


class ParseError(DesignError):
    """A CSV cell or config entry could not be parsed."""


class EmptyInput(DesignError):
    """The input contains no usable data rows."""


class FitDiverged(DesignError):
    """Maximum-likelihood fitting failed to converge to a usable estimate."""


class NonFiniteAtom(DesignError):
    """An atom has a NaN or infinite entry."""

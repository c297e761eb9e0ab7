"""Exception types shared across the package."""


class WidthLabError(Exception):
    """Base class for all widthlab errors."""


class DimensionMismatch(WidthLabError):
    """Operands have incompatible dimensions."""


class BadDimensions(WidthLabError):
    """A requested dimension is out of the supported range."""


class RankDeficient(WidthLabError):
    """Input vectors are numerically linearly dependent."""


class SingularMatrix(WidthLabError):
    """A matrix required to be invertible is (numerically) singular."""


class VarianceBlowup(WidthLabError):
    """A Monte-Carlo estimate has a confidence interval too wide to be useful."""


class Saturation(WidthLabError):
    """A greedy net lost the separation its construction guarantees."""


class BadOrder(WidthLabError):
    """A width order m is outside 0..n or the axis list is not sorted."""


class FloatRange(WidthLabError):
    """A task's arithmetic left the float range: overflow, division by zero or NaN."""


class ConfigError(WidthLabError):
    """An experiment configuration is malformed; message names the field."""

"""Exception hierarchy shared across the package."""


class FbmvarError(Exception):
    """Base class for all package-specific errors."""


class RegimeError(FbmvarError):
    """The (kappa, H) pair is outside the regime required by the operation."""


class EmbeddingError(FbmvarError):
    """Circulant embedding produced an eigenvalue too negative to clamp."""


class OrderError(FbmvarError):
    """A derivative order beyond what a weight function registers."""


class UnknownWeight(FbmvarError):
    """Weight id not present in the registry."""


class DegenerateFit(FbmvarError):
    """Rate fit input is unusable (non-positive errors or too few points)."""


class ConfigError(FbmvarError):
    """Experiment config document is malformed; message is field-addressed."""


class OutputError(FbmvarError):
    """An output file or directory cannot be created or written; the message names it."""

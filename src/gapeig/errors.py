"""Exception types shared across gapeig modules."""


class GapeigError(Exception):
    """Base class for all gapeig numerical and validation errors."""


class InvalidMatrix(GapeigError):
    """Matrix input is malformed: non-finite entries, wrong shape, or not symmetric."""


class PencilNotDefinite(GapeigError):
    """Right-hand matrix of a symmetric pencil failed the positive-definiteness check."""


class ResolutionError(GapeigError):
    """Sampling grid too coarse for the requested Fourier content (aliasing detected)."""


class BasisTooLarge(GapeigError):
    """Requested discretization exceeds the configured basis-size budget."""


class NoGap(GapeigError):
    """No spectral gap exists above the requested band index at the working resolution."""


class MeshOffsetError(GapeigError):
    """Mesh endpoints are not commensurate with the element size."""


class QGridAsymmetric(GapeigError):
    """Quadrature grid over the Brillouin zone is not symmetric under q -> -q."""


class WindowTooSmall(GapeigError):
    """Projector window does not leave the required margin around the computational domain."""


class NotConverged(GapeigError):
    """An iterative solve stopped short: an inner solve failed or a certified count was not met."""


class ConfigError(GapeigError):
    """Configuration file is malformed or fails schema validation."""

"""Exception types raised across the package."""


class DwroptError(Exception):
    """Base class for all package errors."""


class SizingError(DwroptError):
    """Requested cell size does not tile the domain."""


class DegreeError(DwroptError):
    """Unsupported polynomial degree."""


class AssemblyError(DwroptError):
    """Non-finite data or inconsistent inputs encountered during assembly."""


class SingularSystemError(DwroptError):
    """Direct factorization failed on an (exactly) singular matrix."""


class UnrelatedMeshError(DwroptError):
    """Transfer requested between meshes that share no refinement lineage."""


class NonConvergenceError(DwroptError):
    """Iterative solver exhausted its iteration budget."""


class LineSearchError(DwroptError):
    """Backtracking line search failed to produce an acceptable step."""


class WeightDegeneracyError(DwroptError):
    """A goal combination's enriched reference evaluation is not finite."""


class ConfigError(DwroptError):
    """Invalid configuration file or preset name."""


class RegionError(DwroptError):
    """Subdomain box is not aligned with the mesh lines."""

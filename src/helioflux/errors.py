"""Exception types shared across the package."""


class HelioFluxError(Exception):
    """Base class for every error raised by this package."""


class BacklitMirror(HelioFluxError):
    """The sun direction is on the non-reflective side of a mirror."""


class DegenerateGeometry(HelioFluxError):
    """A geometric construction has no solution (anti-parallel rays, vertical normal, ...)."""


class KernelAliasingError(HelioFluxError):
    """A sunshape kernel would exceed the safe fraction of the receiver grid."""


class GridTooSmall(HelioFluxError):
    """The receiver grid cannot contain the flux spot without losing power."""


class GridMismatch(HelioFluxError):
    """Two flux maps do not share grid geometry or DNI normalization."""


class ConfigError(HelioFluxError):
    """A scene failed to parse or validate.

    Raised for a scene file and for a ``SceneConfig`` built or varied in
    code (``dataclasses.replace``): ``SceneConfig`` checks its DNI and
    ``metrics.case_heliostats`` its cases when ``day_course`` runs it.
    """

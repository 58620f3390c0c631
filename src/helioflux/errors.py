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


class ConfigError(HelioFluxError, ValueError):
    """A scene value failed to parse or is out of range.

    The rules hold at construction: each scene dataclass (``SiteSpec``,
    ``SunPosition``, ``SunshapeModel``, ``GridSpec``, ``ReceiverSpec``,
    ``HeliostatSpec``, ``SceneConfig``) checks its own values, so a scene
    read from a file and one built or varied in code with
    ``dataclasses.replace`` obey the same rules and fail the same way.
    """

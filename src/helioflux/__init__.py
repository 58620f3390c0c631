"""Heliostat canting optimization and receiver flux-density simulation.

The package computes module canting angles for multi-faceted focusing
heliostats (spherical and off-axis variants), renders receiver-plane flux
density maps with two independent engines (a grid ray tracer and an FFT
convolution pipeline), and quantifies the concentration gain of off-axis
canting across a day schedule.
"""

__version__ = "0.1.0"

from .errors import (BacklitMirror, ConfigError, DegenerateGeometry,
                     GridMismatch, GridTooSmall, HelioFluxError,
                     KernelAliasingError)
from .geometry import (ReflectionGeometry, bisector_normal, heliostat_frame,
                       normalize, reflect)
from .sun import (ScheduleEntry, SiteSpec, SunPosition, SunshapeModel,
                  build_kernel, cone_directions, ephemeris, equation_of_time,
                  hour_label, ideal_equinox_position, sun_vector,
                  sunshape_radiance)
from .receiver import GridSpec, ReceiverSpec
from .heliostat import (CantingSet, Facet, HeliostatSpec, ModuleLayout,
                        OffAxisContext, canting_law, canting_report,
                        canting_table, module_centres, off_axis_canting,
                        off_axis_context, realize_modules, spherical_canting)
from .flux import (FluxMap, convolve_flux, geometric_spot, map_add, map_stats,
                   trace_flux_grt)
from .metrics import (ConcentrationReport, concentration_ratio, day_course,
                      intercepted_power)
from .scene import SceneConfig, load_config, table1_scene_path, with_overrides

"""Staggered-TDM MIMO FMCW imaging radar: scene simulator and full receive
processing chain (demux, range/Doppler FFTs, CFAR, velocity unfolding via
alias intersection plus overlapped-array phases, migration compensation,
angle spectra and range-azimuth maps)."""

from .angle import (
    CalibrationError,
    CalibrationVector,
    RangeAzimuthMap,
    angle_spectrum,
    apply_calibration,
    assemble_snapshot,
    collapse_snapshot,
    estimate_calibration,
    polar_to_cartesian,
    range_azimuth_map,
)
from .config import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    FramePlan,
    InvalidParameterError,
    RadarParams,
    VirtualArray,
    azimuth_resolution_3db,
    beat_frequency,
    build_frame_plan,
    build_virtual_array,
    crt_margin,
    default_geometry,
    default_params,
    folded_vmax,
    phase_migration,
    range_resolution,
)
from .dsp import (
    CfarConfig,
    Detection,
    RangeDopplerCube,
    cfar_ca2d,
    noncoherent_integrate,
    range_doppler_map,
    tdm_demux,
)
from .pipeline import PipelineResult, ResolvedDetection, run_pipeline
from .simulate import (
    DataCube,
    PointTarget,
    Scene,
    inject_channel_errors,
    simulate_frame,
    simulate_frame_pair,
)
from .unfold import (
    UnsupportedGeometryError,
    VirtualSnapshot,
    compensate_tdm_phase,
    crt_candidates,
    crt_intersect,
    fold_velocity,
    resolve_velocity,
)

__version__ = "0.1.0"

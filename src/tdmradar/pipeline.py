"""End-to-end receive pipeline for one staggered frame pair: demux, 2-D
FFTs, noncoherent integration, CFAR, cross-frame velocity unfolding, TDM
phase compensation, angle estimation and range-azimuth map generation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angle import (
    CalibrationVector,
    RangeAzimuthMap,
    _check_aperture,
    angle_spectrum,
    apply_calibration,
    assemble_snapshot,
    collapse_snapshot,
    polar_to_cartesian,
    range_azimuth_map,
)
from .config import (
    ArrayGeometry,
    InvalidParameterError,
    RadarParams,
    build_virtual_array,
    crt_margin,
    crt_tolerance,
)
from .dsp import (
    CfarConfig,
    cfar_ca2d,
    noncoherent_integrate,
    range_doppler_map,
    tdm_demux,
)
from .simulate import DataCube, _frame_pair
from .unfold import (
    UnsupportedGeometryError,
    compensate_tdm_phase,
    crt_candidates,
    crt_intersect,
    resolve_velocity,
)

# Detections in consecutive frames are paired when their range bins differ
# by at most this much (targets drift by about a bin over one frame).
_RANGE_MATCH_BINS = 2


@dataclass
class ResolvedDetection:
    range_m: float
    velocity_mps: float
    azimuth_deg: float
    power_db: float
    range_bin: int
    doppler_bin_a: int
    doppler_bin_b: int | None


@dataclass
class PipelineResult:
    map_a: RangeAzimuthMap
    map_b: RangeAzimuthMap
    detections: list
    detections_a: list
    detections_b: list


def _match_across_frames(dets_a, dets_b):
    """Greedy one-to-one (det_a, det_b or None) pairs by range-bin proximity, strongest first."""
    pairs = []
    used_b = set()
    for det_a in sorted(dets_a, key=lambda d: -d.power_db):
        best, best_gap = None, _RANGE_MATCH_BINS + 1
        for j, det_b in enumerate(dets_b):
            if j in used_b:
                continue
            gap = abs(det_b.range_bin - det_a.range_bin)
            if gap < best_gap:
                best, best_gap = j, gap
        if best is not None:
            used_b.add(best)
        pairs.append((det_a, dets_b[best] if best is not None else None))
    return pairs


def unfold_detection(det_a, det_b, rd_a, rd_b, varray, params):
    """Resolve one detection's true velocity from a frame pair.

    Candidate aliases come from frame a; when frame b has a matching
    detection they are narrowed to the CRT intersection with frame b's
    aliases (an empty intersection falls back to the union of both sets).
    The final pick compares overlapped-element phases on frame a's
    snapshot.  Returns (velocity, compensated snapshot).
    """
    wavelength = params.wavelength_m
    candidates = crt_candidates(det_a.folded_velocity_mps, rd_a.folded_vmax_mps, params.n_tx)
    if det_b is not None:
        set_b = crt_candidates(det_b.folded_velocity_mps, rd_b.folded_vmax_mps, params.n_tx)
        narrowed = crt_intersect(candidates, set_b, crt_tolerance(params))
        # Noisy folds can miss the tolerance; fall back to scoring the
        # union of both alias sets with the overlap phases.
        candidates = narrowed if narrowed.size else np.union1d(candidates, set_b)

    snapshot = assemble_snapshot(rd_a, (det_a.range_bin, det_a.doppler_bin), varray)
    velocity = resolve_velocity(snapshot, candidates, rd_a.plan, wavelength)
    compensated = compensate_tdm_phase(snapshot, velocity, rd_a.plan, wavelength)
    return velocity, compensated


def _process_frame(cube: DataCube, cfar: CfarConfig, cal: CalibrationVector | None):
    """Demux, one-sided range/Doppler FFTs (Hann), noncoherent integration
    and CFAR of one frame in complex64 (the precision cube files store), then
    calibration with ``cal``: returns (rd, the NCI map it thresholded, detections)."""
    # Keep the one-sided beat spectrum: bins from n_fast/2 on are the
    # negative-beat mirror, beyond max_unambiguous_range_m.
    rd = range_doppler_map(tdm_demux(cube, cube.plan), one_sided=True, dtype=np.complex64)
    power = noncoherent_integrate(rd)
    # A NaN or inf sample spreads through both FFTs into this small map.
    if not np.isfinite(power).all():
        raise InvalidParameterError(f"frame {cube.plan.frame_index} has non-finite samples")
    detections = cfar_ca2d(power, cfar, velocity_axis=rd.velocity_axis,
                           frame_index=cube.plan.frame_index)
    if cal is not None:
        apply_calibration(rd, cal)
    return rd, power, detections


def run_pipeline(cube_a: DataCube, cube_b: DataCube, params: RadarParams,
                 geometry: ArrayGeometry, cal: CalibrationVector | None = None,
                 cfar: CfarConfig = CfarConfig(), *, cartesian: bool = False) -> PipelineResult:
    """Process one staggered frame pair (``ANGLE_GRID_SIZE`` angle grid);
    cubes simulated or read under other params or another geometry, params
    whose CRT margin is not above the intersection tolerance, a calibration
    measured on another array geometry, a virtual array wider than the angle
    grid or non-finite samples raise.  With ``cartesian``, both polar maps are
    resampled once the range/Doppler cubes are dropped."""
    if cube_a.params != params or cube_b.params != params:
        raise InvalidParameterError("the frame pair was made under other radar parameters")
    margin, tolerance = crt_margin(params), crt_tolerance(params)
    if not margin > tolerance:
        raise InvalidParameterError(
            f"CRT margin {margin:.3g} m/s is not above the {tolerance:.3g} m/s "
            "intersection tolerance, so wrong alias candidates of the two frames can agree")
    if cal is not None and cal.geometry != geometry:
        raise InvalidParameterError(
            f"the calibration was measured on another array geometry, {cal.geometry}")
    if {cube_a.plan.frame_index % 2, cube_b.plan.frame_index % 2} != {0, 1}:
        raise InvalidParameterError("need one even and one odd frame of a staggered pair")

    geometry.check_shape(params.n_tx, params.n_rx)
    varray = build_virtual_array(geometry)
    _check_aperture(varray.virtual_positions[-1] + 1)
    if not varray.overlapped_pairs:
        raise UnsupportedGeometryError(
            "velocity unfolding needs overlapped virtual elements from distinct TXs")
    if cube_a.geometry != geometry or cube_b.geometry != geometry:
        raise InvalidParameterError("the frame pair was recorded by another array geometry")

    # Frame b runs on the frame-b worker while frame a runs here.
    (rd_a, power_a, detections_a), (rd_b, power_b, detections_b) = _frame_pair(
        lambda: _process_frame(cube_a, cfar, cal), lambda: _process_frame(cube_b, cfar, cal))

    velocities_a = rd_a.velocity_axis.copy()
    velocities_b = rd_b.velocity_axis.copy()

    resolved = []
    for det_a, det_b in _match_across_frames(detections_a, detections_b):
        velocity, compensated = unfold_detection(det_a, det_b, rd_a, rd_b, varray, params)
        positions, collapsed = collapse_snapshot(compensated)
        spectrum = angle_spectrum(positions, collapsed)

        velocities_a[det_a.doppler_bin] = velocity
        if det_b is not None:
            velocities_b[det_b.doppler_bin] = velocity
        resolved.append(ResolvedDetection(
            range_m=(det_a.range_bin + det_a.range_offset) * rd_a.range_bin_m,
            velocity_mps=velocity,
            azimuth_deg=spectrum.peak_azimuth_deg,
            power_db=det_a.power_db,
            range_bin=det_a.range_bin,
            doppler_bin_a=det_a.doppler_bin,
            doppler_bin_b=det_b.doppler_bin if det_b is not None else None,
        ))

    map_a, map_b = _frame_pair(
        lambda: range_azimuth_map(rd_a, varray, power_a, velocities=velocities_a),
        lambda: range_azimuth_map(rd_b, varray, power_b, velocities=velocities_b))
    if cartesian:
        del rd_a, rd_b  # the resample's lookup is built with no cube held
        map_a, map_b = _frame_pair(lambda: polar_to_cartesian(map_a),
                                   lambda: polar_to_cartesian(map_b))
    return PipelineResult(map_a=map_a, map_b=map_b, detections=resolved,
                          detections_a=detections_a, detections_b=detections_b)

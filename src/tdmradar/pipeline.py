"""End-to-end receive pipeline for one staggered frame pair: demux, 2-D
FFTs, noncoherent integration, CFAR, cross-frame velocity unfolding, TDM
phase compensation, angle estimation and range-azimuth map generation."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .angle import (
    CalibrationVector,
    RangeAzimuthMap,
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
)
from .dsp import (
    CfarConfig,
    cfar_ca2d,
    noncoherent_integrate,
    parabolic_offset,
    range_doppler_map,
    tdm_demux,
)
from .simulate import DataCube
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
    detections_a: list = field(default_factory=list)
    detections_b: list = field(default_factory=list)
    cartesian_a: RangeAzimuthMap | None = None
    cartesian_b: RangeAzimuthMap | None = None


def _refined_range_m(power_map, detection, range_bin_m: float) -> float:
    """Range with sub-bin parabolic refinement along the range axis."""
    r = detection.range_bin
    if not 0 < r < power_map.shape[1] - 1:
        return r * range_bin_m
    return (r + parabolic_offset(power_map[detection.doppler_bin, r - 1:r + 2])) * range_bin_m


def _match_across_frames(dets_a, dets_b):
    """Greedy one-to-one pairing by range-bin proximity, strongest first."""
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
        pairs.append((det_a, best))
    return pairs


def unfold_detection(det_a, det_b, rd_a, rd_b, varray, params,
                     cal: CalibrationVector | None = None):
    """Resolve one detection's true velocity from a frame pair.

    Candidate aliases come from frame a; when frame b has a matching
    detection they are narrowed to the CRT intersection with frame b's
    aliases (an empty intersection falls back to the union of both sets).
    The final pick compares overlapped-element phases on frame a's
    snapshot.  Returns (velocity, compensated snapshot).
    """
    wavelength = params.wavelength_m
    set_a = crt_candidates(det_a.folded_velocity_mps, rd_a.folded_vmax_mps,
                           params.n_tx, frame_index=rd_a.plan.frame_index)
    candidates = set_a.candidates
    if det_b is not None:
        set_b = crt_candidates(det_b.folded_velocity_mps, rd_b.folded_vmax_mps,
                               params.n_tx, frame_index=rd_b.plan.frame_index)
        tolerance = max(rd_a.velocity_bin_mps, rd_b.velocity_bin_mps) / 2.0
        narrowed = crt_intersect(set_a, set_b, tolerance)
        if narrowed.size == 0:
            # Noisy folds can miss the tolerance; fall back to scoring the
            # union of both alias sets with the overlap phases.
            narrowed = np.union1d(set_a.candidates, set_b.candidates)
        candidates = narrowed

    snapshot = assemble_snapshot(rd_a, (det_a.range_bin, det_a.doppler_bin), varray)
    if cal is not None:
        snapshot = apply_calibration(snapshot, cal)
    velocity = resolve_velocity(snapshot, candidates, varray, rd_a.plan, wavelength)
    compensated = compensate_tdm_phase(snapshot, velocity, rd_a.plan, wavelength)
    return velocity, compensated


def run_pipeline(cube_a: DataCube, cube_b: DataCube, params: RadarParams,
                 geometry: ArrayGeometry, cal: CalibrationVector | None = None,
                 cfar: CfarConfig | None = None, *, cartesian: bool = False,
                 workers: int = 1) -> PipelineResult:
    """Process one staggered frame pair (Hann range/Doppler windows, default
    angle grid); a mismatched calibration or non-finite samples raise."""
    if cal is not None:
        cal.check_shape(params.n_tx, params.n_rx)
    cfar = CfarConfig() if cfar is None else cfar
    if {cube_a.plan.frame_index % 2, cube_b.plan.frame_index % 2} != {0, 1}:
        raise InvalidParameterError("need one even and one odd frame of a staggered pair")
    if workers < 1:
        raise InvalidParameterError(f"workers must be at least 1, got {workers}")

    varray = build_virtual_array(geometry)
    if not varray.overlapped_pairs:
        raise UnsupportedGeometryError(
            "velocity unfolding needs overlapped virtual elements from distinct TXs")

    rd = {}
    detections = {}
    powers = {}
    for tag, cube in (("a", cube_a), ("b", cube_b)):
        full = range_doppler_map(tdm_demux(cube, cube.plan))
        # Keep the one-sided beat spectrum: bins from n_fast/2 on are the
        # negative-beat mirror, beyond max_unambiguous_range_m.  Copying
        # the kept half lets the two-sided cube be freed at once.
        rd[tag] = replace(full, values=np.ascontiguousarray(
            full.values[..., :full.n_range // 2]))
        del full
        powers[tag] = noncoherent_integrate(rd[tag])
        # A NaN or inf sample spreads through both FFTs into this small map.
        if not np.isfinite(powers[tag]).all():
            raise InvalidParameterError(f"frame {cube.plan.frame_index} has non-finite samples")
        detections[tag] = cfar_ca2d(powers[tag], cfar,
                                    velocity_axis=rd[tag].velocity_axis,
                                    frame_index=cube.plan.frame_index)

    rd_a, rd_b = rd["a"], rd["b"]
    velocities_a = rd_a.velocity_axis.copy()
    velocities_b = rd_b.velocity_axis.copy()

    resolved = []
    for det_a, b_index in _match_across_frames(detections["a"], detections["b"]):
        det_b = detections["b"][b_index] if b_index is not None else None
        velocity, compensated = unfold_detection(det_a, det_b, rd_a, rd_b,
                                                 varray, params, cal=cal)
        positions, collapsed = collapse_snapshot(compensated)
        spectrum = angle_spectrum(positions, collapsed)

        velocities_a[det_a.doppler_bin] = velocity
        if det_b is not None:
            velocities_b[det_b.doppler_bin] = velocity
        resolved.append(ResolvedDetection(
            range_m=_refined_range_m(powers["a"], det_a, rd_a.range_bin_m),
            velocity_mps=velocity,
            azimuth_deg=spectrum.peak_azimuth_deg,
            power_db=det_a.power_db,
            range_bin=det_a.range_bin,
            doppler_bin_a=det_a.doppler_bin,
            doppler_bin_b=det_b.doppler_bin if det_b is not None else None,
        ))

    map_a, map_b = (range_azimuth_map(rd_x, varray, cal=cal, velocities=v, workers=workers)
                    for rd_x, v in ((rd_a, velocities_a), (rd_b, velocities_b)))

    result = PipelineResult(map_a=map_a, map_b=map_b, detections=resolved,
                            detections_a=detections["a"], detections_b=detections["b"])
    if cartesian:
        result.cartesian_a = polar_to_cartesian(map_a)
        result.cartesian_b = polar_to_cartesian(map_b)
    return result

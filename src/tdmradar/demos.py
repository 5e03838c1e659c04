"""Self-contained reproductions of the reference experiments: the staggered
velocity-unfolding worked example, the moving-target phase-compensation
experiment, and the angle/range resolution measurements.  Each demo checks
its results against the acceptance thresholds and reports pass/fail."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import find_peaks

from .angle import angle_spectrum, assemble_snapshot, collapse_snapshot
from .config import (
    SPEED_OF_LIGHT,
    RadarParams,
    azimuth_resolution_3db,
    build_virtual_array,
    default_geometry,
    range_resolution,
)
from .dsp import noncoherent_integrate, range_doppler_map, tdm_demux
from .simulate import PointTarget, Scene, simulate_frame, simulate_frame_pair
from .unfold import (
    CandidateSet,
    compensate_tdm_phase,
    crt_candidates,
    crt_intersect,
    fold_velocity,
    resolve_velocity,
)


@dataclass
class DemoResult:
    name: str
    passed: bool = True
    lines: list = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.lines.append(("ok   " if ok else "FAIL ") + message)
        self.passed = self.passed and ok

    def note(self, message: str) -> None:
        self.lines.append("     " + message)


def _params_for_vmax(vmax_a: float, vmax_b: float) -> RadarParams:
    """9 x 16 radar parameters whose folded vmax per frame equals the given values."""
    wavelength = SPEED_OF_LIGHT / 77e9
    return RadarParams(
        carrier_frequency_hz=77e9, bandwidth_hz=250e6, chirp_duration_s=25e-6,
        adc_samples_per_chirp=128, chirps_per_tx_per_frame=32, n_tx=9, n_rx=16,
        pri_frame_a_s=wavelength / (4.0 * 9 * vmax_a),
        pri_frame_b_s=wavelength / (4.0 * 9 * vmax_b))


def _strongest_cell(rd) -> tuple:
    power = noncoherent_integrate(rd)
    doppler_bin, range_bin = np.unravel_index(np.argmax(power), power.shape)
    return int(range_bin), int(doppler_bin)


# Candidate lists as printed in the reference worked example (rounded there).
_PRINTED_SET_A = [-30.1, -22.9, -15.6, -8.4, -1.2, 6.0, 13.2, 20.5, 27.7]
_PRINTED_SET_B = [-15.6, -11.3, -7.0, -2.6, 1.7, 6.0, 10.4, 14.7, 19.0]
_PRINTED_NARROWED = [-15.6, 6.0]


def demo_unfold() -> DemoResult:
    """Worked example: v = 6 m/s against frame vmax of 3.6 and 2.2 m/s."""
    result = DemoResult("unfold")
    v_true, vmax_a, vmax_b, n_tx = 6.0, 3.6, 2.2, 9

    folded_a = fold_velocity(v_true, vmax_a)
    folded_b = fold_velocity(v_true, vmax_b)
    result.check(abs(folded_a - (-1.2)) < 1e-9, f"frame 0 folds {v_true} -> {folded_a:+.4f} m/s")
    result.check(abs(folded_b - 1.6) < 1e-9, f"frame 1 folds {v_true} -> {folded_b:+.4f} m/s")

    set_a = crt_candidates(folded_a, vmax_a, n_tx, frame_index=0)
    set_b = crt_candidates(folded_b, vmax_b, n_tx, frame_index=1)
    exact_a = [-30.0, -22.8, -15.6, -8.4, -1.2, 6.0, 13.2, 20.4, 27.6]
    exact_b = [-16.0, -11.6, -7.2, -2.8, 1.6, 6.0, 10.4, 14.8, 19.2]
    result.note("frame 0 candidates: " + np.array2string(set_a.candidates, precision=2))
    result.note("frame 1 candidates: " + np.array2string(set_b.candidates, precision=2))
    result.check(np.allclose(set_a.candidates, exact_a, atol=1e-9),
                 "frame 0 candidate set matches exact arithmetic to 1e-9")
    result.check(np.allclose(set_b.candidates, exact_b, atol=1e-9),
                 "frame 1 candidate set matches exact arithmetic to 1e-9")

    dev_a = float(np.max(np.abs(set_a.candidates - np.asarray(_PRINTED_SET_A))))
    dev_b = float(np.max(np.abs(set_b.candidates - np.asarray(_PRINTED_SET_B))))
    result.check(dev_a <= 0.15,
                 f"frame 0 set matches the printed reference list to {dev_a:.2f} m/s")
    result.note(f"frame 1 printed list deviates up to {dev_b:.2f} m/s: that list was "
                "rounded from a slightly different vmax (it folds 6.0 to 1.7, exact is 1.6)")

    printed_a = CandidateSet(0, -1.2, vmax_a, 4, np.asarray(_PRINTED_SET_A))
    printed_b = CandidateSet(1, 1.7, vmax_b, 4, np.asarray(_PRINTED_SET_B))
    narrowed = crt_intersect(printed_a, printed_b, tolerance=0.25)
    result.note("printed sets intersected (tol 0.25): " + np.array2string(narrowed))
    dev_n = (float(np.max(np.abs(narrowed - np.asarray(_PRINTED_NARROWED))))
             if narrowed.size == 2 else np.inf)
    result.check(dev_n <= 0.15,
                 f"narrowed list matches the printed [-15.6, 6.0] to {dev_n:.2f} m/s")

    exact_common = crt_intersect(set_a, set_b, tolerance=0.3)
    result.check(exact_common.size == 1 and abs(exact_common[0] - 6.0) < 1e-9,
                 "exact sets intersect (tol 0.3) to the single candidate 6.0")

    # Final pick via the overlapped-array phases on simulated data.
    params = _params_for_vmax(vmax_a, vmax_b)
    geometry = default_geometry()
    varray = build_virtual_array(geometry)
    scene = Scene(targets=(PointTarget(range_m=20.0, velocity_mps=v_true,
                                       azimuth_deg=10.0),))
    frame_a, _ = simulate_frame_pair(scene, params, geometry)
    rd = range_doppler_map(tdm_demux(frame_a, frame_a.plan))
    snapshot = assemble_snapshot(rd, _strongest_cell(rd), varray)
    picked = resolve_velocity(snapshot, np.asarray(_PRINTED_NARROWED), varray,
                              rd.plan, params.wavelength_m)
    result.check(abs(picked - 6.0) < 1e-9,
                 f"overlapped-array comparison resolves the final velocity to {picked:.1f} m/s")
    return result


def demo_compensation() -> DemoResult:
    """Moving target at 20 deg, 10 m/s, 50 us TX slots: angle spectrum before
    and after migration compensation."""
    result = DemoResult("compensation")
    params = RadarParams(
        carrier_frequency_hz=77e9, bandwidth_hz=250e6, chirp_duration_s=40e-6,
        adc_samples_per_chirp=256, chirps_per_tx_per_frame=128, n_tx=9, n_rx=16,
        pri_frame_a_s=50e-6, pri_frame_b_s=60e-6)
    geometry = default_geometry()
    varray = build_virtual_array(geometry)
    truth_az, truth_v = 20.0, 10.0
    scene = Scene(targets=(PointTarget(range_m=25.0, velocity_mps=truth_v,
                                       azimuth_deg=truth_az),))

    cube = simulate_frame(scene, params, geometry, frame_index=0)
    rd = range_doppler_map(tdm_demux(cube, cube.plan))
    cell = _strongest_cell(rd)
    snapshot = assemble_snapshot(rd, cell, varray)

    positions, collapsed = collapse_snapshot(snapshot)
    before = angle_spectrum(positions, collapsed, grid_size=512).peak_azimuth_deg
    result.check(abs(before - truth_az) > 2.0,
                 f"uncompensated spectrum peaks at {before:+.2f} deg "
                 f"({abs(before - truth_az):.2f} deg off the true {truth_az} deg)")

    folded = rd.velocity_axis[cell[1]]
    candidates = crt_candidates(folded, rd.folded_vmax_mps, params.n_tx)
    velocity = resolve_velocity(snapshot, candidates.candidates, varray,
                                rd.plan, params.wavelength_m)
    result.note(f"folded measurement {folded:+.3f} m/s resolves to {velocity:+.3f} m/s")

    compensated = compensate_tdm_phase(snapshot, velocity, rd.plan, params.wavelength_m)
    positions, collapsed = collapse_snapshot(compensated)
    after = angle_spectrum(positions, collapsed, grid_size=512).peak_azimuth_deg
    result.check(abs(after - truth_az) <= 0.3,
                 f"compensated spectrum peaks at {after:+.2f} deg "
                 f"({abs(after - truth_az):.2f} deg off)")
    return result


def demo_resolution_angle() -> DemoResult:
    """Two equal reflectors 1.6 deg apart at 5 m: the 86-element array must
    show two maxima with at least a 3 dB saddle."""
    result = DemoResult("resolution-angle")
    beamwidth = azimuth_resolution_3db(85)
    result.check(abs(beamwidth - 1.2016) <= 0.01,
                 f"3 dB beamwidth of the 85 half-wavelength aperture is {beamwidth:.4f} deg")

    params = RadarParams(
        carrier_frequency_hz=77e9, bandwidth_hz=250e6, chirp_duration_s=20e-6,
        adc_samples_per_chirp=256, chirps_per_tx_per_frame=32, n_tx=9, n_rx=16,
        pri_frame_a_s=21.0e-6, pri_frame_b_s=27.2e-6)
    geometry = default_geometry()
    varray = build_virtual_array(geometry)
    scene = Scene(targets=(
        PointTarget(range_m=5.0, velocity_mps=0.0, azimuth_deg=-0.8),
        PointTarget(range_m=5.0, velocity_mps=0.0, azimuth_deg=+0.8),
    ))
    cube = simulate_frame(scene, params, geometry, frame_index=0)
    rd = range_doppler_map(tdm_demux(cube, cube.plan))
    snapshot = assemble_snapshot(rd, _strongest_cell(rd), varray)
    positions, collapsed = collapse_snapshot(snapshot)
    spectrum = angle_spectrum(positions, collapsed, grid_size=256)

    window = np.abs(spectrum.azimuth_deg) <= 5.0
    power = spectrum.power_db[window]
    azimuth = spectrum.azimuth_deg[window]
    peaks, _ = find_peaks(power, height=power.max() - 6.0)
    result.check(peaks.size == 2, f"{peaks.size} maxima within 5 deg of boresight")
    if peaks.size == 2:
        az_lo, az_hi = sorted(azimuth[peaks])
        saddle = min(power[peaks]) - power[peaks[0]:peaks[1] + 1].min()
        result.check(abs(az_lo + 0.8) <= 0.5 and abs(az_hi - 0.8) <= 0.5,
                     f"maxima at {az_lo:+.2f} and {az_hi:+.2f} deg (truth -0.8/+0.8)")
        result.check(saddle >= 3.0, f"saddle between the maxima is {saddle:.1f} dB")
    return result


def demo_resolution_range() -> DemoResult:
    """Two reflectors 0.6 m apart at equal azimuth, 250 MHz sweep: the
    (rectangular-window) range spectrum must show two maxima."""
    result = DemoResult("resolution-range")
    params = RadarParams(
        carrier_frequency_hz=77e9, bandwidth_hz=250e6, chirp_duration_s=20e-6,
        adc_samples_per_chirp=256, chirps_per_tx_per_frame=32, n_tx=9, n_rx=16,
        pri_frame_a_s=21.0e-6, pri_frame_b_s=27.2e-6)
    geometry = default_geometry()
    bin_m = range_resolution(params)
    result.note(f"range bin is {bin_m:.4f} m, reflector spacing 0.6 m")

    r_lo, r_hi = 20.0, 20.6
    scene = Scene(targets=(
        PointTarget(range_m=r_lo, velocity_mps=0.0, azimuth_deg=0.0),
        PointTarget(range_m=r_hi, velocity_mps=0.0, azimuth_deg=0.0),
    ))
    cube = simulate_frame(scene, params, geometry, frame_index=0)

    # Boresight targets are in phase on every channel: average channels and
    # chirps coherently, then evaluate a finely padded rectangular-window
    # spectrum (the 0.6 m spacing is exactly one bin, so the dip between the
    # two returns lies between grid points of the unpadded FFT).
    pad = 8
    beat = cube.samples.mean(axis=(0, 1))
    profile = np.abs(np.fft.fft(beat, n=pad * params.adc_samples_per_chirp)) ** 2
    profile = profile[:profile.size // 2]
    profile_db = 10.0 * np.log10(np.maximum(profile, profile.max() * 1e-12))
    fine_ranges = np.arange(profile.size) * bin_m / pad

    peaks, _ = find_peaks(profile_db, height=profile_db.max() - 6.0)
    result.check(peaks.size == 2, f"{peaks.size} range maxima above peak-6 dB")
    if peaks.size == 2:
        ranges = fine_ranges[peaks]
        dip = profile_db[peaks].min() - profile_db[peaks[0]:peaks[1] + 1].min()
        result.check(abs(ranges[0] - r_lo) <= 0.3 and abs(ranges[1] - r_hi) <= 0.3,
                     f"maxima at {ranges[0]:.2f} and {ranges[1]:.2f} m "
                     f"(truth {r_lo}/{r_hi} m), dip {dip:.1f} dB")
    return result


ALL_DEMOS = {
    "unfold": demo_unfold,
    "compensation": demo_compensation,
    "resolution-angle": demo_resolution_angle,
    "resolution-range": demo_resolution_range,
}

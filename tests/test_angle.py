import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
from scipy.ndimage import map_coordinates

from tdmradar import (
    CalibrationError,
    CalibrationVector,
    InvalidParameterError,
    PointTarget,
    RadarParams,
    Scene,
    VirtualSnapshot,
    angle_spectrum,
    apply_calibration,
    assemble_snapshot,
    build_virtual_array,
    collapse_snapshot,
    compensate_tdm_phase,
    default_params,
    estimate_calibration,
    inject_channel_errors,
    noncoherent_integrate,
    polar_to_cartesian,
    range_azimuth_map,
    range_doppler_map,
    simulate_frame,
    simulate_frame_pair,
    tdm_demux,
)
from tdmradar import angle
from tdmradar.angle import FLOOR_DB, RangeAzimuthMap, steering_vector
from tdmradar.config import ArrayGeometry
from tdmradar.simulate import _MAX_AMPLITUDE
from tdmradar.unfold import migration_rotation

from conftest import line_array, peak_cell, random_scene, single_target_scene


def process_frame(scene, params, geometry, frame_index=0):
    cube = simulate_frame(scene, params, geometry, frame_index)
    rd = range_doppler_map(tdm_demux(cube, cube.plan))
    return cube, rd


class TestEstimateCalibration:
    def test_clean_reflector_gives_all_ones(self, small_params, geometry):
        scene = single_target_scene(range_m=5.0, azimuth_deg=0.0)
        cube, _ = process_frame(scene, small_params, geometry)
        cal = estimate_calibration(cube, 5.0, 0.0)
        np.testing.assert_allclose(cal.gains, np.ones_like(cal.gains), atol=1e-9)

    def test_injected_gain_round_trip(self, small_params, geometry):
        rng = np.random.default_rng(11)
        gains = (rng.uniform(0.5, 2.0, (9, 16))
                 * np.exp(1j * rng.uniform(-np.pi, np.pi, (9, 16))))
        scene = single_target_scene(range_m=5.0, azimuth_deg=0.0)
        cube, _ = process_frame(scene, small_params, geometry)
        corrupted = inject_channel_errors(cube, gains)
        cal = estimate_calibration(corrupted, 5.0, 0.0)
        # recovered gains equal injected up to one global complex scalar
        ratio = cal.gains / gains
        np.testing.assert_allclose(ratio, ratio[0, 0], rtol=1e-6)

    def test_recovered_phases_at_30db(self, small_params, geometry):
        rng = np.random.default_rng(12)
        gains = np.exp(1j * rng.uniform(-np.pi, np.pi, (9, 16)))
        scene = single_target_scene(range_m=5.0, azimuth_deg=0.0, snr_db=30.0, seed=8)
        cube, _ = process_frame(scene, small_params, geometry)
        corrupted = inject_channel_errors(cube, gains)
        cal = estimate_calibration(corrupted, 5.0, 0.0)
        phase_err = np.angle(cal.gains / gains / (cal.gains[0, 0] / gains[0, 0]))
        rms_deg = np.degrees(np.sqrt(np.mean(phase_err ** 2)))
        assert rms_deg < 2.0

    def test_low_snr_rejected(self, small_params, geometry):
        scene = single_target_scene(range_m=5.0, amplitude=0.02, snr_db=20.0, seed=1)
        cube, _ = process_frame(scene, small_params, geometry)
        with pytest.raises(CalibrationError):
            estimate_calibration(cube, 5.0, 0.0)

    @pytest.mark.parametrize("range_m, azimuth_deg", [(np.nan, 0.0), (np.inf, 0.0),
                                                      (5.0, np.nan), (5.0, 90.0)])
    def test_bad_truth_rejected(self, small_params, geometry, range_m, azimuth_deg):
        cube = simulate_frame(single_target_scene(range_m=5.0), small_params, geometry, 0)
        with pytest.raises(InvalidParameterError, match="reference"):
            estimate_calibration(cube, range_m, azimuth_deg)

    def test_wrong_truth_range_rejected(self, small_params, geometry):
        scene = single_target_scene(range_m=20.0, azimuth_deg=0.0)
        cube, _ = process_frame(scene, small_params, geometry)
        with pytest.raises(CalibrationError):
            estimate_calibration(cube, 5.0, 0.0)


class TestApplyCalibration:
    def test_all_ones_identity(self, small_params, geometry):
        scene = single_target_scene(range_m=10.0, azimuth_deg=4.0)
        _, rd = process_frame(scene, small_params, geometry)
        before = rd.values.copy()
        cal = CalibrationVector(np.ones((9, 16), dtype=complex), 5.0, 0.0, geometry)
        assert apply_calibration(rd, cal) is rd
        np.testing.assert_array_equal(rd.values, before)

    def test_full_round_trip_restores_steering(self, small_params, geometry, varray):
        rng = np.random.default_rng(13)
        gains = (rng.uniform(0.5, 2.0, (9, 16))
                 * np.exp(1j * rng.uniform(-np.pi, np.pi, (9, 16))))
        cal_scene = single_target_scene(range_m=5.0, azimuth_deg=0.0)
        cal_cube, _ = process_frame(cal_scene, small_params, geometry)
        cal = estimate_calibration(inject_channel_errors(cal_cube, gains), 5.0, 0.0)

        scene = single_target_scene(range_m=20.0, azimuth_deg=17.0)
        cube = simulate_frame(scene, small_params, geometry, 0)
        rd = range_doppler_map(tdm_demux(inject_channel_errors(cube, gains), cube.plan))
        cell = peak_cell(noncoherent_integrate(rd))
        restored = assemble_snapshot(apply_calibration(rd, cal), cell, varray)

        ideal = steering_vector(geometry, 17.0)[varray.source_tx, varray.source_rx]
        ratio = restored.values / ideal
        np.testing.assert_allclose(ratio / ratio[0], np.ones_like(ratio), rtol=1e-9)

    def test_calibration_records_its_geometry(self, small_params, geometry):
        cube, _ = process_frame(single_target_scene(range_m=5.0), small_params, geometry)
        cal = estimate_calibration(cube, 5.0, 0.0)
        assert cal.geometry == geometry
        data = cal.to_dict()
        assert CalibrationVector.from_dict(data).geometry == geometry
        del data["geometry"]
        with pytest.raises(InvalidParameterError, match=r"missing fields \['geometry'\]"):
            CalibrationVector.from_dict(data)
        with pytest.raises(InvalidParameterError, match="geometry of"):
            CalibrationVector(cal.gains, 5.0, 0.0, line_array(2, 3))

    def test_from_dict_gain_count_mismatch(self):
        data = CalibrationVector(np.ones((9, 16), dtype=complex), 5.0, 0.0,
                                 line_array(9, 16)).to_dict()
        data["gains"] = data["gains"][:-1]
        with pytest.raises(InvalidParameterError):
            CalibrationVector.from_dict(data)

    def test_from_dict_rejects_malformed_documents(self):
        data = CalibrationVector(np.ones((9, 16), dtype=complex), 5.0, 0.0,
                                 line_array(9, 16)).to_dict()
        cases = {"calibration must be a JSON object": [[1, 2], "x"],
                 r"missing fields \['gains', 'n_rx'\]": [
                     {k: v for k, v in data.items() if k not in ("gains", "n_rx")}],
                 r"calibration: unknown fields \['offset'\]": [{**data, "offset": 1.0}],
                 r"calibration reference: unknown fields \['range'\]": [
                     {**data, "reference": {"range": 5.0}}],
                 "must be finite numbers": [
                     {**data, "reference": {"range_m": "far"}},
                     {**data, "reference": {"azimuth_deg": np.nan}},
                     {**data, "reference": {"range_m": True}}]}
        for message, docs in cases.items():
            for doc in docs:
                with pytest.raises(InvalidParameterError, match=message):
                    CalibrationVector.from_dict(doc)

    def test_zero_gain_rejected_at_construction(self):
        # non-finite gains are rejected the same way
        for bad in (0.0, np.nan, np.inf):
            gains = np.ones((2, 2), dtype=complex)
            gains[1, 1] = bad
            with pytest.raises(InvalidParameterError, match="finite and non-zero"):
                CalibrationVector(gains, 5.0, 0.0, line_array(2, 2))

    @pytest.mark.parametrize("gain", [1e300, 1e-38, -1e10, 1e-10j])
    def test_gain_beyond_the_level_limit_rejected(self, gain):
        # a complex64 cube is divided by the gains: the reciprocal of 1e300
        # underflows to 0 there, that of 1e-38 overflows to inf
        gains = np.ones((2, 2), dtype=complex)
        gains[0, 1] = gain
        with pytest.raises(InvalidParameterError, match="calibration gains"):
            CalibrationVector(gains, 5.0, 0.0, line_array(2, 2))

    def test_gains_at_the_level_limit_accepted(self):
        limit = _MAX_AMPLITUDE
        cal = CalibrationVector(np.array([[limit, 1j / limit]]), 5.0, 0.0, line_array(1, 2))
        assert np.abs(cal.gains).tolist() == [[limit, 1.0 / limit]]

    def test_shape_mismatch(self, small_params, geometry):
        scene = single_target_scene(range_m=10.0)
        _, rd = process_frame(scene, small_params, geometry)
        with pytest.raises(InvalidParameterError):
            apply_calibration(rd, CalibrationVector(np.ones((2, 3), dtype=complex), 5.0, 0.0,
                                                      line_array(2, 3)))


class TestAssembleSnapshot:
    def test_counts_default_geometry(self, small_params, geometry, varray):
        scene = single_target_scene(range_m=12.0)
        _, rd = process_frame(scene, small_params, geometry)
        snapshot = assemble_snapshot(rd, (10, 5), varray)
        assert snapshot.values.size == 144
        assert snapshot.varray is varray
        assert np.unique(varray.position).size == 86

    def test_small_geometry(self):
        p = RadarParams(77e9, 250e6, 20e-6, 64, 8, 1, 4, 21e-6, 27.2e-6)
        geom = ArrayGeometry((0,), (0, 1, 2, 3))
        va = build_virtual_array(geom)
        scene = single_target_scene(range_m=10.0)
        cube = simulate_frame(scene, p, geom, 0)
        rd = range_doppler_map(tdm_demux(cube, cube.plan))
        snapshot = assemble_snapshot(rd, (5, 2), va)
        assert snapshot.values.size == 4
        assert np.unique(va.position).size == 4

    def test_values_match_direct_indexing(self, small_params, geometry, varray):
        scene = single_target_scene(range_m=12.0, azimuth_deg=3.0)
        _, rd = process_frame(scene, small_params, geometry)
        snapshot = assemble_snapshot(rd, (7, 9), varray)
        for i in range(0, snapshot.values.size, 17):
            t, r = varray.source_tx[i], varray.source_rx[i]
            assert snapshot.values[i] == rd.values[t, r, 9, 7]

    def test_out_of_bounds_cell(self, small_params, geometry, varray):
        scene = single_target_scene(range_m=12.0)
        _, rd = process_frame(scene, small_params, geometry)
        with pytest.raises(InvalidParameterError):
            assemble_snapshot(rd, (rd.n_range, 0), varray)

    def test_array_of_another_shape_refused(self, small_params, geometry):
        # a 2 x 3 array on the 9 x 16 cube would read 6 of its 144 channels
        _, rd = process_frame(single_target_scene(range_m=12.0), small_params, geometry)
        other = build_virtual_array(ArrayGeometry((0, 4), (0, 1, 2)))
        with pytest.raises(InvalidParameterError,
                           match=re.escape("virtual array of (2, 3) channels for a (9, 16)")):
            assemble_snapshot(rd, (10, 5), other)


class TestCollapseSnapshot:
    @pytest.mark.parametrize("tx_positions, means", [
        # source (tx, rx) carries 1 + 10*tx + rx
        ((0, 1), [1.0, (2 + 11) / 2, (3 + 12) / 2, 13.0]),
        ((0, 1, 2), [1.0, (2 + 11) / 2, (3 + 12 + 21) / 3, (13 + 22) / 2, 23.0]),
    ])
    def test_unequal_multiplicity_means(self, tx_positions, means):
        va = build_virtual_array(ArrayGeometry(tx_positions, (0, 1, 2)))
        values = (1.0 + 10.0 * va.source_tx + va.source_rx) * (1.0 - 2.0j)
        snapshot = VirtualSnapshot(values, va)
        positions, collapsed = collapse_snapshot(snapshot)
        np.testing.assert_array_equal(positions, np.arange(len(means)))
        np.testing.assert_allclose(collapsed, np.asarray(means) * (1.0 - 2.0j), rtol=1e-15)

    def test_default_array_equals_averaging_matrix_bit_for_bit(self, varray):
        # no slot of the default array holds more than two channels, so the
        # sum onto the slot is exact whichever way it is ordered
        rng = np.random.default_rng(8)
        values = rng.normal(size=144) + 1j * rng.normal(size=144)
        slot = varray.position[varray.source_tx, varray.source_rx]
        matrix = np.zeros((86, 144))
        matrix[slot, np.arange(144)] = 1.0 / np.bincount(slot)[slot]
        positions, collapsed = collapse_snapshot(VirtualSnapshot(values, varray))
        np.testing.assert_array_equal(positions, np.arange(86))
        np.testing.assert_array_equal(collapsed, matrix @ values)


class TestAngleSpectrum:
    def test_boresight_peak(self, small_params, geometry, varray):
        scene = single_target_scene(range_m=15.0, azimuth_deg=0.0)
        _, rd = process_frame(scene, small_params, geometry)
        snapshot = assemble_snapshot(rd, peak_cell(noncoherent_integrate(rd)), varray)
        spec = angle_spectrum(*collapse_snapshot(snapshot))
        assert spec.peak_azimuth_deg == pytest.approx(0.0, abs=1e-9)

    def test_peak_within_one_sin_cell(self, small_params, geometry, varray):
        for az in (-28.0, -7.3, 4.6, 19.0, 33.0):
            scene = single_target_scene(range_m=15.0, azimuth_deg=az)
            _, rd = process_frame(scene, small_params, geometry)
            snapshot = assemble_snapshot(rd, peak_cell(noncoherent_integrate(rd)), varray)
            spec = angle_spectrum(*collapse_snapshot(snapshot))
            peak_sin = spec.sin_axis[int(np.argmax(spec.power_db))]
            assert abs(peak_sin - np.sin(np.radians(az))) <= 2.0 / 256

    def test_scaling_invariance(self, small_params, geometry, varray):
        scene = single_target_scene(range_m=15.0, azimuth_deg=11.0)
        _, rd = process_frame(scene, small_params, geometry)
        snapshot = assemble_snapshot(rd, peak_cell(noncoherent_integrate(rd)), varray)
        positions, values = collapse_snapshot(snapshot)
        base = np.argmax(angle_spectrum(positions, values).power_db)
        scaled = np.argmax(angle_spectrum(positions, values * (0.02 * np.exp(1j))).power_db)
        assert base == scaled

    def test_grid_too_small(self, varray):
        # a 257-slot aperture does not fit the 256-bin angle grid; 256 slots do
        assert angle_spectrum(np.arange(256), np.ones(256, dtype=complex)).power_db.size == 256
        with pytest.raises(InvalidParameterError, match="256-bin angle grid smaller than the 257"):
            angle_spectrum(np.arange(257), np.ones(257, dtype=complex))

    def test_negative_position_rejected(self):
        # a negative slot used to wrap onto the last slot (a -70.96 deg peak)
        with pytest.raises(InvalidParameterError, match="non-negative slot positions"):
            angle_spectrum(np.array([-1, 2]), np.ones(2))

    def test_empty_positions_rejected(self):
        with pytest.raises(InvalidParameterError, match="non-negative slot positions"):
            angle_spectrum(np.array([], dtype=int), np.ones(0))

    def test_values_length_must_match_positions(self):
        with pytest.raises(InvalidParameterError, match=r"\(3,\) values for \(2,\) positions"):
            angle_spectrum(np.array([0, 2]), np.ones(3))


class TestRangeAzimuthMap:
    def test_empty_scene_floor(self, small_params, geometry, varray):
        from tdmradar import Scene

        cube = simulate_frame(Scene(targets=()), small_params, geometry, 0)
        rd = range_doppler_map(tdm_demux(cube, cube.plan))
        m = range_azimuth_map(rd, varray, noncoherent_integrate(rd))
        assert (m.power_db == FLOOR_DB).all()

    def test_corner_reflector_peak_cell(self, small_params, geometry, varray):
        scene = single_target_scene(range_m=5.0, azimuth_deg=0.0)
        _, rd = process_frame(scene, small_params, geometry)
        m = range_azimuth_map(rd, varray, noncoherent_integrate(rd))
        r_idx, a_idx = np.unravel_index(np.argmax(m.power_db), m.power_db.shape)
        assert r_idx == round(5.0 / m.axis0_bin_width)
        assert abs(m.axis1()[a_idx]) <= m.axis1_bin_width

    def test_monotone_in_amplitude(self, small_params, geometry, varray):
        db_values = []
        for amp in (1.0, 4.0):
            scene = single_target_scene(range_m=20.0, azimuth_deg=9.0, amplitude=amp)
            _, rd = process_frame(scene, small_params, geometry)
            m = range_azimuth_map(rd, varray, noncoherent_integrate(rd))
            db_values.append(m.power_db.max())
        assert db_values[1] - db_values[0] == pytest.approx(20 * np.log10(4.0), abs=0.1)

    def test_calibration_undoes_channel_gains(self, small_params, geometry, varray):
        rng = np.random.default_rng(17)
        gains = (rng.uniform(0.5, 2.0, (9, 16))
                 * np.exp(1j * rng.uniform(-np.pi, np.pi, (9, 16))))
        scene = single_target_scene(range_m=20.0, azimuth_deg=9.0, velocity_mps=2.0)
        cube, rd = process_frame(scene, small_params, geometry)
        rd_err = range_doppler_map(tdm_demux(inject_channel_errors(cube, gains), cube.plan))
        # both maps beamform the Doppler bins that the clean cube's NCI ranks
        power = noncoherent_integrate(rd)
        clean = range_azimuth_map(rd, varray, power)
        cal = CalibrationVector(gains, 5.0, 0.0, geometry)
        restored = range_azimuth_map(apply_calibration(rd_err, cal), varray, power)
        above_floor = clean.power_db > clean.power_db.max() - 100.0
        np.testing.assert_allclose(restored.power_db[above_floor],
                                   clean.power_db[above_floor], atol=1e-6)

    def test_rows_match_detection_beamforming(self, small_params, geometry, varray):
        # With one Doppler bin left, each map row is that bin's spectrum, so it
        # must equal the per-detection chain (assemble, compensate, collapse,
        # angle FFT) at the same cell and velocity.
        scene = single_target_scene(range_m=20.0, azimuth_deg=-12.0, velocity_mps=3.0,
                                    snr_db=20.0, seed=5)
        _, rd = process_frame(scene, small_params, geometry)
        r0, d = peak_cell(noncoherent_integrate(rd))
        values = np.zeros_like(rd.values)
        values[:, :, d, :] = rd.values[:, :, d, :]
        rd = replace(rd, values=values)
        pmap = range_azimuth_map(rd, varray, noncoherent_integrate(rd))
        for r in (r0 - 1, r0, r0 + 1):
            snapshot = compensate_tdm_phase(assemble_snapshot(rd, (r, d), varray),
                                            rd.velocity_axis[d], rd.plan,
                                            small_params.wavelength_m)
            spectrum = angle_spectrum(*collapse_snapshot(snapshot))
            above = (spectrum.power_db > FLOOR_DB) & (pmap.power_db[r] > FLOOR_DB)
            assert above.sum() > 200
            np.testing.assert_allclose(pmap.power_db[r, above], spectrum.power_db[above],
                                       rtol=0, atol=1e-9)

    @pytest.mark.parametrize("dtype, tolerance_db", [(np.complex128, 1e-9),
                                                     (np.complex64, 1e-5)])
    @pytest.mark.parametrize("calibrated", [False, True])
    def test_matches_dense_averaging_matrix(self, small_params, geometry, varray,
                                            dtype, tolerance_db, calibrated):
        # the map as it was first written: per Doppler bin, a dense
        # (positions x channels) averaging-matrix product, then |FFT|^2, with
        # the max taken over the 16 Doppler bins the NCI ranks strongest in
        # each range bin
        scene = Scene(targets=(PointTarget(12.0, 7.0, -15.0), PointTarget(24.0, -3.0, 8.0, 0.6),
                               PointTarget(31.0, 19.0, 30.0, 0.8)), snr_db=20.0, rng_seed=21)
        cube, _ = simulate_frame_pair(scene, small_params, geometry)
        gains = np.exp(1j * np.linspace(-3.0, 3.0, 144)).reshape(9, 16) * np.linspace(0.5, 2, 16)
        if calibrated:
            cube = inject_channel_errors(cube, gains)
        rd = range_doppler_map(tdm_demux(cube, cube.plan))
        rd = replace(rd, values=rd.values.astype(dtype))
        nci = noncoherent_integrate(rd)  # of the raw channels, as the CFAR sees them
        values = rd.values
        if calibrated:  # the cube divided by the gains in its own precision
            values = values * (1 / gains).astype(dtype)[:, :, None, None]

        n_tx, n_rx, n_doppler, n_range = rd.values.shape
        tx, rx = varray.source_tx, varray.source_rx
        pos = varray.position[tx, rx]
        collapse = np.zeros((pos.max() + 1, n_tx * n_rx))
        collapse[pos, tx * n_rx + rx] = 1.0 / np.bincount(pos)[pos]
        scale = migration_rotation(rd.velocity_axis[None, :], np.arange(n_tx)[:, None],
                                   rd.plan, small_params.wavelength_m)[:, None, :]
        scale = np.broadcast_to(scale, (n_tx, n_rx, n_doppler)).astype(dtype)
        flat = (values * scale[..., None]).transpose(2, 0, 1, 3)
        flat = flat.reshape(n_doppler, n_tx * n_rx, n_range)
        power = np.abs(scipy.fft.fft(collapse.astype(dtype) @ flat, n=256, axis=1)) ** 2
        strongest = np.argsort(nci, axis=0)[-16:]
        power = np.take_along_axis(power, strongest[:, None, :], axis=0)
        power = np.fft.fftshift(power.max(axis=0).astype(float), axes=0).T
        expected_db = 10.0 * np.log10(np.maximum(power, 10.0 ** (FLOOR_DB / 10.0)))

        if calibrated:
            apply_calibration(rd, CalibrationVector(gains, 5.0, 0.0, geometry))
        pmap = range_azimuth_map(rd, varray, nci)
        assert pmap.power_db.shape == (n_range, 256)
        np.testing.assert_allclose(pmap.power_db, expected_db, rtol=0, atol=tolerance_db)

    @pytest.mark.parametrize("cut", [np.s_[:-1, :], np.s_[:, :-1], np.s_[0]])
    def test_nci_map_of_another_shape_refused(self, small_params, geometry, varray, cut):
        _, rd = process_frame(single_target_scene(range_m=20.0), small_params, geometry)
        power = noncoherent_integrate(rd)[cut]
        with pytest.raises(InvalidParameterError,
                           match=re.escape(f"NCI map {np.shape(power)} does not match")):
            range_azimuth_map(rd, varray, power)

    def test_array_of_another_shape_refused(self, small_params, geometry):
        _, rd = process_frame(single_target_scene(range_m=20.0), small_params, geometry)
        other = build_virtual_array(ArrayGeometry((0, 4), (0, 1, 2)))
        with pytest.raises(InvalidParameterError,
                           match=re.escape("virtual array of (2, 3) channels for a (9, 16)")):
            range_azimuth_map(rd, other, noncoherent_integrate(rd))

    @pytest.mark.parametrize("shape", [(10, 17), (2, 3)])
    def test_calibration_shape_mismatch(self, small_params, geometry, shape):
        _, rd = process_frame(single_target_scene(range_m=20.0), small_params, geometry)
        cal = CalibrationVector(np.ones(shape, dtype=complex), 5.0, 0.0, line_array(*shape))
        with pytest.raises(InvalidParameterError):
            apply_calibration(rd, cal)


def _ungated_map_db(rd, varray):
    # the map without the Doppler gate: every Doppler bin beamformed, eight
    # bins per step, and each (range, azimuth) cell's maximum kept over all
    values = rd.values
    n_tx, _, n_doppler, n_range = values.shape
    position = varray.position
    scale = migration_rotation(rd.velocity_axis[None, :], np.arange(n_tx)[:, None],
                               rd.plan, rd.params.wavelength_m)[:, None, :]
    scale = (scale * varray.weight[:, :, None]).astype(values.dtype)
    peak = 0.0
    for start in range(0, n_doppler, 8):
        stop = min(start + 8, n_doppler)
        grid = np.zeros((stop - start, n_range, position.max() + 1), dtype=values.dtype)
        for k in range(n_tx):
            rows = values[k, :, start:stop, :] * scale[k, :, start:stop, None]
            grid[:, :, position[k]] += rows.transpose(1, 2, 0)
        spectrum = scipy.fft.fft(grid, n=256, axis=-1, overwrite_x=True)
        peak = np.maximum(peak, np.abs(spectrum).max(axis=0))
    power = np.fft.fftshift(peak.astype(float) ** 2, axes=1)
    return 10.0 * np.log10(np.maximum(power, 10.0 ** (FLOOR_DB / 10.0)))


class TestDopplerGate:
    """The map beamforms the 16 Doppler bins per range bin that the NCI ranks
    strongest; against the ungated map, on the pipeline's complex64 cubes."""

    @staticmethod
    def _maps(scene, params, geometry, varray, frame_index):
        cube = simulate_frame(scene, params, geometry, frame_index)
        rd = range_doppler_map(tdm_demux(cube, cube.plan), one_sided=True, dtype=np.complex64)
        gated = range_azimuth_map(rd, varray, noncoherent_integrate(rd)).power_db
        return gated, _ungated_map_db(rd, varray)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("frame_index", [0, 1])
    def test_strong_cells_bit_identical(self, small_params, geometry, varray, seed,
                                        frame_index):
        # 12 targets over 32 Doppler bins, so range bins are shared
        gated, full = self._maps(random_scene(small_params, seed), small_params, geometry,
                                 varray, frame_index)
        strong = full > full.max() - 20.0
        assert strong.sum() > 100
        assert np.array_equal(gated[strong], full[strong])
        # every gated cell is a maximum over a subset of the same spectra
        assert (gated <= full).all() and (gated < full).any()

    def test_strong_cells_bit_identical_at_default_params(self, geometry, varray):
        # configs/scene_demo.json's targets over 128 Doppler bins; its gathered
        # rows are large enough for numpy to elide temporaries
        scene = Scene(targets=(PointTarget(30.0, 6.0, 10.0),
                               PointTarget(75.0, -12.0, -20.0, amplitude=0.7),
                               PointTarget(120.0, 0.0, 3.0, amplitude=1.5)),
                      snr_db=20.0, rng_seed=5)
        gated, full = self._maps(scene, default_params(), geometry, varray, 0)
        strong = full > full.max() - 40.0
        assert strong.sum() > 500
        assert np.array_equal(gated[strong], full[strong])
        assert (gated <= full).all() and (gated < full).any()

    @pytest.mark.parametrize("chirps", [4, 8])
    def test_fewer_doppler_bins_than_the_gate_keep_every_cell(self, small_params, geometry,
                                                              varray, chirps):
        params = replace(small_params, chirps_per_tx_per_frame=chirps)
        gated, full = self._maps(random_scene(params, 4), params, geometry, varray, 0)
        assert np.array_equal(gated, full)


class TestPolarToCartesian:
    def _point_map(self, r_bin, sin_value, n_range=128, grid=256, bin_m=0.5996):
        # peaked blob a few bins wide, like a windowed point response
        power = np.full((n_range, grid), FLOOR_DB)
        sin_idx = int(round((sin_value + 1.0) * grid / 2.0))
        for di in range(-2, 3):
            for dj in range(-4, 5):
                power[r_bin + di, sin_idx + dj] = -6.0 * np.hypot(di, dj / 2.0)
        return RangeAzimuthMap(power_db=power, kind="polar",
                               axis0_bin_width=bin_m, axis0_origin=0.0,
                               axis1_bin_width=2.0 / grid, axis1_origin=-1.0)

    def test_boresight_point(self):
        pmap = self._point_map(r_bin=int(round(10 / 0.5996)), sin_value=0.0)
        cart = polar_to_cartesian(pmap)
        xi, yi = np.unravel_index(np.argmax(cart.power_db), cart.power_db.shape)
        assert abs(cart.axis0()[xi] - 0.0) <= 0.25
        assert abs(cart.axis1()[yi] - 10.19) <= 0.3 + 0.25

    def test_30_degree_point(self):
        pmap = self._point_map(r_bin=int(round(10 / 0.5996)),
                               sin_value=np.sin(np.radians(30.0)))
        cart = polar_to_cartesian(pmap)
        r_true = round(10 / 0.5996) * 0.5996
        xi, yi = np.unravel_index(np.argmax(cart.power_db), cart.power_db.shape)
        assert abs(cart.axis0()[xi] - r_true * 0.5) <= 0.55
        assert abs(cart.axis1()[yi] - r_true * np.cos(np.radians(30.0))) <= 0.55

    def test_peak_preserved_within_3db(self, small_params, geometry, varray):
        scene = single_target_scene(range_m=20.0, azimuth_deg=9.0)
        _, rd = process_frame(scene, small_params, geometry)
        pmap = range_azimuth_map(rd, varray, noncoherent_integrate(rd))
        cart = polar_to_cartesian(pmap)
        assert cart.power_db.max() >= pmap.power_db.max() - 3.0

    def test_peak_position_maps_through(self, small_params, geometry, varray):
        scene = single_target_scene(range_m=20.0, azimuth_deg=9.0)
        _, rd = process_frame(scene, small_params, geometry)
        pmap = range_azimuth_map(rd, varray, noncoherent_integrate(rd))
        ri, ai = np.unravel_index(np.argmax(pmap.power_db), pmap.power_db.shape)
        r = pmap.axis0()[ri]
        az = np.arcsin(pmap.axis1()[ai])
        cart = polar_to_cartesian(pmap)
        xi, yi = np.unravel_index(np.argmax(cart.power_db), cart.power_db.shape)
        assert abs(cart.axis0()[xi] - r * np.sin(az)) <= 0.4
        assert abs(cart.axis1()[yi] - r * np.cos(az)) <= 0.4

    def test_fov_clamp(self):
        pmap = self._point_map(r_bin=16, sin_value=np.sin(np.radians(60.0)))
        cart = polar_to_cartesian(pmap)
        # 60 deg is outside the 70 deg FOV: nothing may leak past the clamp
        np.testing.assert_allclose(cart.power_db, FLOOR_DB, atol=1e-9)

    @pytest.mark.parametrize("origin, n_range", [(-1.0, 128), (-0.9, 60), (-1.3, 300)])
    def test_equals_ndimage_bilinear(self, origin, n_range):
        # the numpy gather equals order-1 map_coordinates bit for bit, with
        # grid cells beyond the map's range and sin-azimuth edges
        rng = np.random.default_rng(n_range)
        pmap = RangeAzimuthMap(power_db=rng.uniform(-110.0, 0.0, (n_range, 256)), kind="polar",
                               axis0_bin_width=0.5996, axis0_origin=0.0,
                               axis1_bin_width=2.0 / 256, axis1_origin=origin)
        x, y = np.meshgrid(angle._BEV_X_M, angle._BEV_Y_M, indexing="ij")
        radius = np.hypot(x, y)
        coordinates = [radius / pmap.axis0_bin_width, (x / radius - origin) / pmap.axis1_bin_width]
        expected = map_coordinates(pmap.power_db, coordinates, order=1, mode="constant",
                                   cval=FLOOR_DB)
        expected[np.abs(np.degrees(np.arctan2(x, y))) > 35.0] = FLOOR_DB
        assert np.array_equal(polar_to_cartesian(pmap).power_db, expected)

    def test_lookup_cached_and_read_only(self):
        pmap = self._point_map(r_bin=16, sin_value=0.2)
        angle._bev_lookup.cache_clear()
        fresh = polar_to_cartesian(pmap)
        cached = polar_to_cartesian(pmap)
        assert angle._bev_lookup.cache_info().hits == 1
        assert np.array_equal(cached.power_db, fresh.power_db)
        key = (pmap.power_db.shape, (pmap.axis0_bin_width, pmap.axis1_bin_width),
               (pmap.axis0_origin, pmap.axis1_origin))
        for array, recomputed in zip(angle._bev_lookup(*key), angle._bev_lookup.__wrapped__(*key)):
            assert np.array_equal(array, recomputed)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        # another layout is another entry: 60 range bins cover fewer cells
        flat = [RangeAzimuthMap(np.zeros((n_range, 256)), "polar", pmap.axis0_bin_width, 0.0,
                                pmap.axis1_bin_width, pmap.axis1_origin) for n_range in (128, 60)]
        covered = [np.count_nonzero(polar_to_cartesian(m).power_db == 0.0) for m in flat]
        assert 0 < covered[1] < covered[0]
        assert angle._bev_lookup.cache_info().currsize == 2

    def test_lookup_shared_by_threads(self):
        # the two frame threads resample at once: more threads than cores,
        # layouts that collide in the cache, and frequent thread switches
        rng = np.random.default_rng(2)
        maps = [RangeAzimuthMap(rng.uniform(-110.0, 0.0, (n_range, 256)), "polar", 0.5996, 0.0,
                                2.0 / 256, -1.0) for n_range in (128, 60, 128, 60, 90, 128)]
        angle._bev_lookup.cache_clear()
        expected = [polar_to_cartesian(m).power_db for m in maps]
        angle._bev_lookup.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(polar_to_cartesian, m) for m in maps * 3]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for result, power in zip(results, expected * 3):
            assert np.array_equal(result.power_db, power)
        assert angle._bev_lookup.cache_info().currsize == 3

    def test_first_calls_from_two_threads_build_the_lookup_once(self):
        # the two frame threads' first Cartesian maps of a layout arrive together
        pmap = RangeAzimuthMap(np.zeros((77, 256)), "polar", 0.5996, 0.0, 2.0 / 256, -1.0)
        angle._bev_lookup.cache_clear()
        barrier = threading.Barrier(2)

        def first_call():
            barrier.wait(timeout=60)
            return polar_to_cartesian(pmap)

        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(first_call) for _ in range(2)]
            results = [f.result(timeout=60) for f in futures]
        assert angle._bev_lookup.cache_info().misses == 1
        assert np.array_equal(results[0].power_db, results[1].power_db)

    def test_requires_polar(self):
        pmap = self._point_map(r_bin=4, sin_value=0.0)
        cart = polar_to_cartesian(pmap)
        with pytest.raises(InvalidParameterError):
            polar_to_cartesian(cart)

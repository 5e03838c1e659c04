from dataclasses import replace

import numpy as np
import pytest

from tdmradar import (
    CalibrationError,
    CalibrationVector,
    InvalidParameterError,
    RadarParams,
    VirtualSnapshot,
    angle_spectrum,
    apply_calibration,
    assemble_snapshot,
    build_virtual_array,
    collapse_snapshot,
    compensate_tdm_phase,
    estimate_calibration,
    inject_channel_errors,
    noncoherent_integrate,
    polar_to_cartesian,
    range_azimuth_map,
    range_doppler_map,
    simulate_frame,
    tdm_demux,
)
from tdmradar.angle import FLOOR_DB, RangeAzimuthMap, steering_vector
from tdmradar.config import ArrayGeometry

from conftest import peak_cell, single_target_scene


def process_frame(scene, params, geometry, frame_index=0):
    cube = simulate_frame(scene, params, geometry, frame_index)
    rd = range_doppler_map(tdm_demux(cube, cube.plan))
    return cube, rd


class TestEstimateCalibration:
    def test_clean_reflector_gives_all_ones(self, small_params, geometry):
        scene = single_target_scene(range_m=5.0, azimuth_deg=0.0)
        cube, _ = process_frame(scene, small_params, geometry)
        cal = estimate_calibration(cube, 5.0, 0.0, geometry)
        np.testing.assert_allclose(cal.gains, np.ones_like(cal.gains), atol=1e-9)

    def test_injected_gain_round_trip(self, small_params, geometry):
        rng = np.random.default_rng(11)
        gains = (rng.uniform(0.5, 2.0, (9, 16))
                 * np.exp(1j * rng.uniform(-np.pi, np.pi, (9, 16))))
        scene = single_target_scene(range_m=5.0, azimuth_deg=0.0)
        cube, _ = process_frame(scene, small_params, geometry)
        corrupted = inject_channel_errors(cube, gains)
        cal = estimate_calibration(corrupted, 5.0, 0.0, geometry)
        # recovered gains equal injected up to one global complex scalar
        ratio = cal.gains / gains
        np.testing.assert_allclose(ratio, ratio[0, 0], rtol=1e-6)

    def test_recovered_phases_at_30db(self, small_params, geometry):
        rng = np.random.default_rng(12)
        gains = np.exp(1j * rng.uniform(-np.pi, np.pi, (9, 16)))
        scene = single_target_scene(range_m=5.0, azimuth_deg=0.0, snr_db=30.0, seed=8)
        cube, _ = process_frame(scene, small_params, geometry)
        corrupted = inject_channel_errors(cube, gains)
        cal = estimate_calibration(corrupted, 5.0, 0.0, geometry)
        phase_err = np.angle(cal.gains / gains / (cal.gains[0, 0] / gains[0, 0]))
        rms_deg = np.degrees(np.sqrt(np.mean(phase_err ** 2)))
        assert rms_deg < 2.0

    def test_low_snr_rejected(self, small_params, geometry):
        scene = single_target_scene(range_m=5.0, amplitude=0.02, snr_db=20.0, seed=1)
        cube, _ = process_frame(scene, small_params, geometry)
        with pytest.raises(CalibrationError):
            estimate_calibration(cube, 5.0, 0.0, geometry)

    @pytest.mark.parametrize("range_m, azimuth_deg", [(np.nan, 0.0), (np.inf, 0.0),
                                                      (5.0, np.nan), (5.0, 90.0)])
    def test_bad_truth_rejected(self, small_params, geometry, range_m, azimuth_deg):
        cube = simulate_frame(single_target_scene(range_m=5.0), small_params, geometry, 0)
        with pytest.raises(InvalidParameterError, match="reference"):
            estimate_calibration(cube, range_m, azimuth_deg, geometry)

    def test_wrong_truth_range_rejected(self, small_params, geometry):
        scene = single_target_scene(range_m=20.0, azimuth_deg=0.0)
        cube, _ = process_frame(scene, small_params, geometry)
        with pytest.raises(CalibrationError):
            estimate_calibration(cube, 5.0, 0.0, geometry)


class TestApplyCalibration:
    def test_all_ones_identity(self, small_params, geometry, varray):
        scene = single_target_scene(range_m=10.0, azimuth_deg=4.0)
        _, rd = process_frame(scene, small_params, geometry)
        snapshot = assemble_snapshot(rd, peak_cell(noncoherent_integrate(rd)), varray)
        cal = CalibrationVector(np.ones((9, 16), dtype=complex), 5.0, 0.0)
        out = apply_calibration(snapshot, cal)
        np.testing.assert_array_equal(out.values, snapshot.values)

    def test_full_round_trip_restores_steering(self, small_params, geometry, varray):
        rng = np.random.default_rng(13)
        gains = (rng.uniform(0.5, 2.0, (9, 16))
                 * np.exp(1j * rng.uniform(-np.pi, np.pi, (9, 16))))
        cal_scene = single_target_scene(range_m=5.0, azimuth_deg=0.0)
        cal_cube, _ = process_frame(cal_scene, small_params, geometry)
        cal = estimate_calibration(inject_channel_errors(cal_cube, gains), 5.0, 0.0, geometry)

        scene = single_target_scene(range_m=20.0, azimuth_deg=17.0)
        cube = simulate_frame(scene, small_params, geometry, 0)
        rd = range_doppler_map(tdm_demux(inject_channel_errors(cube, gains), cube.plan))
        snapshot = assemble_snapshot(rd, peak_cell(noncoherent_integrate(rd)), varray)
        restored = apply_calibration(snapshot, cal)

        ideal = steering_vector(geometry, 17.0)[snapshot.source_tx, snapshot.source_rx]
        ratio = restored.values / ideal
        np.testing.assert_allclose(ratio / ratio[0], np.ones_like(ratio), rtol=1e-9)

    def test_from_dict_gain_count_mismatch(self):
        data = CalibrationVector(np.ones((9, 16), dtype=complex), 5.0, 0.0).to_dict()
        data["gains"] = data["gains"][:-1]
        with pytest.raises(InvalidParameterError):
            CalibrationVector.from_dict(data)

    def test_from_dict_rejects_malformed_documents(self):
        data = CalibrationVector(np.ones((9, 16), dtype=complex), 5.0, 0.0).to_dict()
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
                CalibrationVector(gains, 5.0, 0.0)

    def test_shape_mismatch(self, small_params, geometry, varray):
        scene = single_target_scene(range_m=10.0)
        _, rd = process_frame(scene, small_params, geometry)
        snapshot = assemble_snapshot(rd, (3, 4), varray)
        with pytest.raises(InvalidParameterError):
            apply_calibration(snapshot, CalibrationVector(np.ones((2, 3), dtype=complex), 5.0, 0.0))


class TestAssembleSnapshot:
    def test_counts_default_geometry(self, small_params, geometry, varray):
        scene = single_target_scene(range_m=12.0)
        _, rd = process_frame(scene, small_params, geometry)
        snapshot = assemble_snapshot(rd, (10, 5), varray)
        assert snapshot.values.size == 144
        assert np.unique(snapshot.source_position).size == 86

    def test_small_geometry(self):
        p = RadarParams(77e9, 250e6, 20e-6, 64, 8, 1, 4, 21e-6, 27.2e-6)
        geom = ArrayGeometry((0,), (0, 1, 2, 3))
        va = build_virtual_array(geom)
        scene = single_target_scene(range_m=10.0)
        cube = simulate_frame(scene, p, geom, 0)
        rd = range_doppler_map(tdm_demux(cube, cube.plan))
        snapshot = assemble_snapshot(rd, (5, 2), va)
        assert snapshot.values.size == 4
        assert np.unique(snapshot.source_position).size == 4

    def test_values_match_direct_indexing(self, small_params, geometry, varray):
        scene = single_target_scene(range_m=12.0, azimuth_deg=3.0)
        _, rd = process_frame(scene, small_params, geometry)
        snapshot = assemble_snapshot(rd, (7, 9), varray)
        for i in range(0, snapshot.values.size, 17):
            t, r = snapshot.source_tx[i], snapshot.source_rx[i]
            assert snapshot.values[i] == rd.values[t, r, 9, 7]

    def test_out_of_bounds_cell(self, small_params, geometry, varray):
        scene = single_target_scene(range_m=12.0)
        _, rd = process_frame(scene, small_params, geometry)
        with pytest.raises(InvalidParameterError):
            assemble_snapshot(rd, (rd.n_range, 0), varray)


class TestCollapseSnapshot:
    @pytest.mark.parametrize("tx_positions, means", [
        # source (tx, rx) carries 1 + 10*tx + rx
        ((0, 1), [1.0, (2 + 11) / 2, (3 + 12) / 2, 13.0]),
        ((0, 1, 2), [1.0, (2 + 11) / 2, (3 + 12 + 21) / 3, (13 + 22) / 2, 23.0]),
    ])
    def test_unequal_multiplicity_means(self, tx_positions, means):
        va = build_virtual_array(ArrayGeometry(tx_positions, (0, 1, 2)))
        tx, rx, pos = va.source_table()
        values = (1.0 + 10.0 * tx + rx) * (1.0 - 2.0j)
        snapshot = VirtualSnapshot(values=values, source_tx=tx, source_rx=rx,
                                   source_position=pos, cell=(0, 0), frame_index=0)
        positions, collapsed = collapse_snapshot(snapshot)
        np.testing.assert_array_equal(positions, np.arange(len(means)))
        np.testing.assert_allclose(collapsed, np.asarray(means) * (1.0 - 2.0j), rtol=1e-15)


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
            spec = angle_spectrum(*collapse_snapshot(snapshot), grid_size=256)
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
        positions = np.arange(86)
        with pytest.raises(InvalidParameterError):
            angle_spectrum(positions, np.ones(86, dtype=complex), grid_size=64)


class TestRangeAzimuthMap:
    def test_empty_scene_floor(self, small_params, geometry, varray):
        from tdmradar import Scene

        cube = simulate_frame(Scene(targets=()), small_params, geometry, 0)
        rd = range_doppler_map(tdm_demux(cube, cube.plan))
        m = range_azimuth_map(rd, varray)
        assert (m.power_db == FLOOR_DB).all()

    def test_corner_reflector_peak_cell(self, small_params, geometry, varray):
        scene = single_target_scene(range_m=5.0, azimuth_deg=0.0)
        _, rd = process_frame(scene, small_params, geometry)
        m = range_azimuth_map(rd, varray)
        r_idx, a_idx = np.unravel_index(np.argmax(m.power_db), m.power_db.shape)
        assert r_idx == round(5.0 / m.axis0_bin_width)
        assert abs(m.axis1()[a_idx]) <= m.axis1_bin_width

    def test_monotone_in_amplitude(self, small_params, geometry, varray):
        db_values = []
        for amp in (1.0, 4.0):
            scene = single_target_scene(range_m=20.0, azimuth_deg=9.0, amplitude=amp)
            _, rd = process_frame(scene, small_params, geometry)
            m = range_azimuth_map(rd, varray)
            db_values.append(m.power_db.max())
        assert db_values[1] - db_values[0] == pytest.approx(20 * np.log10(4.0), abs=0.1)

    def test_calibration_undoes_channel_gains(self, small_params, geometry, varray):
        rng = np.random.default_rng(17)
        gains = (rng.uniform(0.5, 2.0, (9, 16))
                 * np.exp(1j * rng.uniform(-np.pi, np.pi, (9, 16))))
        scene = single_target_scene(range_m=20.0, azimuth_deg=9.0, velocity_mps=2.0)
        cube, rd = process_frame(scene, small_params, geometry)
        rd_err = range_doppler_map(tdm_demux(inject_channel_errors(cube, gains), cube.plan))
        clean = range_azimuth_map(rd, varray)
        restored = range_azimuth_map(rd_err, varray, cal=CalibrationVector(gains, 5.0, 0.0))
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
        pmap = range_azimuth_map(rd, varray)
        for r in (r0 - 1, r0, r0 + 1):
            snapshot = compensate_tdm_phase(assemble_snapshot(rd, (r, d), varray),
                                            rd.velocity_axis[d], rd.plan,
                                            small_params.wavelength_m)
            spectrum = angle_spectrum(*collapse_snapshot(snapshot))
            above = (spectrum.power_db > FLOOR_DB) & (pmap.power_db[r] > FLOOR_DB)
            assert above.sum() > 200
            np.testing.assert_allclose(pmap.power_db[r, above], spectrum.power_db[above],
                                       rtol=0, atol=1e-9)

    @pytest.mark.parametrize("shape", [(10, 17), (2, 3)])
    def test_calibration_shape_mismatch(self, small_params, geometry, varray, shape):
        _, rd = process_frame(single_target_scene(range_m=20.0), small_params, geometry)
        cal = CalibrationVector(np.ones(shape, dtype=complex), 5.0, 0.0)
        with pytest.raises(InvalidParameterError):
            range_azimuth_map(rd, varray, cal=cal)


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
        pmap = range_azimuth_map(rd, varray)
        cart = polar_to_cartesian(pmap)
        assert cart.power_db.max() >= pmap.power_db.max() - 3.0

    def test_peak_position_maps_through(self, small_params, geometry, varray):
        scene = single_target_scene(range_m=20.0, azimuth_deg=9.0)
        _, rd = process_frame(scene, small_params, geometry)
        pmap = range_azimuth_map(rd, varray)
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

    def test_requires_polar(self):
        pmap = self._point_map(r_bin=4, sin_value=0.0)
        cart = polar_to_cartesian(pmap)
        with pytest.raises(InvalidParameterError):
            polar_to_cartesian(cart)

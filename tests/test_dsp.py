from dataclasses import replace

import numpy as np
import pytest

from tdmradar import (
    CfarConfig,
    InvalidParameterError,
    RadarParams,
    build_frame_plan,
    cfar_ca2d,
    noncoherent_integrate,
    range_doppler_map,
    simulate_frame,
    tdm_demux,
)
from tdmradar.simulate import DataCube

from conftest import peak_cell, single_target_scene


def synthetic_cube(params, fill=None, seed=None):
    plan = build_frame_plan(params, 0)
    shape = (params.n_rx, plan.chirp_count_total, params.adc_samples_per_chirp)
    if fill is not None:
        samples = np.full(shape, fill, dtype=complex)
    elif seed is not None:
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    else:
        samples = np.zeros(shape, dtype=complex)
    return DataCube(samples=samples, plan=plan, params=params)


class TestDemux:
    def test_two_tx_shapes(self):
        p = RadarParams(77e9, 250e6, 20e-6, 64, 8, 2, 4, 21e-6, 27.2e-6)
        cube = synthetic_cube(p, seed=0)
        sub = tdm_demux(cube, cube.plan)
        assert sub.values.shape == (2, 4, 8, 64)  # virtual channel count 2*4

    def test_nine_tx_chirp_counts(self, small_params):
        cube = synthetic_cube(small_params, seed=1)
        sub = tdm_demux(cube, cube.plan)
        assert sub.values.shape[0] == 9
        assert sub.values.shape[2] == small_params.chirps_per_tx_per_frame

    def test_lossless_permutation(self, small_params):
        cube = synthetic_cube(small_params, seed=2)
        sub = tdm_demux(cube, cube.plan)
        order = np.asarray(cube.plan.tx_order)
        rebuilt = np.empty_like(cube.samples)
        for k in range(small_params.n_tx):
            rebuilt[:, order == k, :] = sub.values[k].transpose(0, 1, 2)
        np.testing.assert_array_equal(rebuilt, cube.samples)

    def test_non_round_robin_plan_rejected(self, small_params):
        cube = synthetic_cube(small_params)
        reversed_plan = replace(cube.plan, tx_order=cube.plan.tx_order[::-1])
        with pytest.raises(InvalidParameterError, match="round-robin"):
            tdm_demux(cube, reversed_plan)

    def test_dimension_mismatch(self, small_params):
        cube = synthetic_cube(small_params)
        other = build_frame_plan(
            RadarParams(77e9, 250e6, 20e-6, 128, 16, 9, 16, 21e-6, 27.2e-6), 0)
        with pytest.raises(InvalidParameterError):
            tdm_demux(cube, other)


class TestRangeDopplerMap:
    def test_zero_in_zero_out(self, small_params):
        rd = range_doppler_map(tdm_demux(synthetic_cube(small_params), build_frame_plan(small_params, 0)))
        assert not rd.values.any()

    def test_single_tone_range_bin(self):
        # 5 MHz tone sampled at 10.24 MHz (512 samples over 50 us) -> bin 250
        p = RadarParams(77e9, 250e6, 50e-6, 512, 4, 1, 1, 50e-6, 60e-6)
        plan = build_frame_plan(p, 0)
        t = np.arange(512) / p.sample_rate_hz
        tone = np.exp(1j * 2 * np.pi * 5e6 * t)
        samples = np.broadcast_to(tone, (1, 4, 512)).copy()
        rd = range_doppler_map(tdm_demux(DataCube(samples, plan, p), plan),
                               window_fast="rect", window_slow="rect")
        profile = np.abs(rd.values[0, 0, rd.n_doppler // 2, :])
        assert int(np.argmax(profile)) == 250

    def test_static_target_zero_velocity_bin(self, small_params, geometry):
        cube = simulate_frame(single_target_scene(range_m=22.0), small_params, geometry, 0)
        rd = range_doppler_map(tdm_demux(cube, cube.plan))
        _, d_bin = peak_cell(noncoherent_integrate(rd))
        assert d_bin == rd.n_doppler // 2
        assert rd.velocity_axis[d_bin] == 0.0

    def test_parseval_each_stage(self, small_params):
        cube = synthetic_cube(small_params, seed=3)
        sub = tdm_demux(cube, cube.plan)
        n_fast = small_params.adc_samples_per_chirp
        n_slow = small_params.chirps_per_tx_per_frame

        energy_in = np.sum(np.abs(sub.values) ** 2)
        stage1 = np.fft.fft(sub.values, axis=-1)
        energy1 = np.sum(np.abs(stage1) ** 2)
        assert energy1 == pytest.approx(n_fast * energy_in, rel=1e-9)
        stage2 = np.fft.fft(stage1, axis=-2)
        energy2 = np.sum(np.abs(stage2) ** 2)
        assert energy2 == pytest.approx(n_slow * energy1, rel=1e-9)

        rd = range_doppler_map(sub, window_fast="rect", window_slow="rect")
        assert np.sum(np.abs(rd.values) ** 2) == pytest.approx(
            n_fast * n_slow * energy_in, rel=1e-9)

    def test_linearity(self, small_params):
        cube_x = synthetic_cube(small_params, seed=4)
        cube_y = synthetic_cube(small_params, seed=5)
        a, b = 2.5 - 1j, -0.75 + 0.2j
        plan = cube_x.plan
        mixed = DataCube(a * cube_x.samples + b * cube_y.samples, plan, small_params)
        rd_mixed = range_doppler_map(tdm_demux(mixed, plan))
        rd_x = range_doppler_map(tdm_demux(cube_x, plan))
        rd_y = range_doppler_map(tdm_demux(cube_y, plan))
        lhs = rd_mixed.values
        rhs = a * rd_x.values + b * rd_y.values
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale

    def test_velocity_axis_convention(self, small_params):
        rd = range_doppler_map(tdm_demux(synthetic_cube(small_params),
                                         build_frame_plan(small_params, 0)))
        assert rd.velocity_axis[0] == pytest.approx(-rd.folded_vmax_mps)
        assert rd.velocity_axis[rd.n_doppler // 2] == 0.0
        assert rd.velocity_bin_mps == pytest.approx(
            2 * rd.folded_vmax_mps / rd.n_doppler)


class TestNoncoherentIntegrate:
    def test_single_channel_is_squared_magnitude(self):
        p = RadarParams(77e9, 250e6, 20e-6, 64, 8, 1, 1, 21e-6, 27.2e-6)
        cube = synthetic_cube(p, seed=6)
        rd = range_doppler_map(tdm_demux(cube, cube.plan))
        np.testing.assert_allclose(noncoherent_integrate(rd),
                                   np.abs(rd.values[0, 0]) ** 2)

    def test_channel_additivity(self, small_params):
        cube = synthetic_cube(small_params, seed=7)
        rd = range_doppler_map(tdm_demux(cube, cube.plan))
        power = noncoherent_integrate(rd)
        doubled = rd.values.repeat(2, axis=0)
        rd.values = doubled
        np.testing.assert_allclose(noncoherent_integrate(rd), 2 * power)

    def test_integration_gain_monte_carlo(self, small_params, geometry):
        # integrated peak power over 144 channels vs a single channel:
        # 10*log10(144) = 21.6 dB within 1 dB across noise seeds
        gains = []
        for seed in range(8):
            scene = single_target_scene(range_m=20.0, azimuth_deg=0.0,
                                        snr_db=20.0, seed=seed)
            cube = simulate_frame(scene, small_params, geometry, 0)
            rd = range_doppler_map(tdm_demux(cube, cube.plan))
            power = noncoherent_integrate(rd)
            r_bin, d_bin = peak_cell(power)
            single = np.abs(rd.values[0, 0, d_bin, r_bin]) ** 2
            gains.append((power[d_bin, r_bin], single))
        integrated, single = np.array(gains).T
        gain_db = 10 * np.log10(integrated.mean() / single.mean())
        assert gain_db == pytest.approx(10 * np.log10(144), abs=1.0)


class TestCfar:
    def test_uniform_map_no_detections(self):
        power = np.full((64, 64), 3.0)
        assert cfar_ca2d(power, CfarConfig(training=(4, 4), guard=(2, 2), pfa=1e-3)) == []

    def test_single_hot_cell(self):
        power = np.ones((64, 128))
        power[20, 40] = 1000.0  # 30 dB above the flat floor
        dets = cfar_ca2d(power, CfarConfig(training=(6, 4), guard=(2, 2), pfa=1e-3))
        assert len(dets) == 1
        assert (dets[0].doppler_bin, dets[0].range_bin) == (20, 40)
        assert dets[0].power_db == pytest.approx(30.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        power = rng.standard_exponential((64, 128))
        power[10, 30] += 60.0
        cfg = CfarConfig(training=(6, 4), guard=(2, 2), pfa=1e-3)
        base = [(d.doppler_bin, d.range_bin) for d in cfar_ca2d(power, cfg)]
        scaled = [(d.doppler_bin, d.range_bin) for d in cfar_ca2d(1e6 * power, cfg)]
        assert base == scaled and (10, 30) in base

    def test_false_alarm_rate_monte_carlo(self):
        # homogeneous complex-Gaussian power (exponential) over >= 1e6 cells
        cfg = CfarConfig(training=(8, 8), guard=(2, 2), pfa=1e-3)
        rng = np.random.default_rng(1234)
        cells = 0
        alarms = 0
        for _ in range(4):
            power = rng.standard_exponential((512, 512))
            alarms += len(cfar_ca2d(power, cfg))
            cells += power.size
        assert cells >= 1_000_000
        rate = alarms / cells
        assert 1e-3 / 3 <= rate <= 3e-3

    def test_window_too_large(self):
        with pytest.raises(InvalidParameterError):
            cfar_ca2d(np.ones((16, 16)), CfarConfig(training=(8, 8), guard=(2, 2), pfa=1e-3))

    def test_detection_at_high_snr_matches_truth_bins(self, small_params, geometry):
        scene = single_target_scene(range_m=24.0, velocity_mps=2.0,
                                    azimuth_deg=5.0, snr_db=25.0, seed=3)
        cube = simulate_frame(scene, small_params, geometry, 0)
        rd = range_doppler_map(tdm_demux(cube, cube.plan))
        power = noncoherent_integrate(rd)
        dets = cfar_ca2d(power, CfarConfig(training=(6, 4), guard=(3, 2), pfa=1e-3),
                         velocity_axis=rd.velocity_axis)
        truth_r, truth_d = peak_cell(power)
        assert any(d.range_bin == truth_r and d.doppler_bin == truth_d for d in dets)

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            CfarConfig(training=(0, 4), guard=(1, 1), pfa=1e-3)
        with pytest.raises(InvalidParameterError):
            CfarConfig(training=(4, 4), guard=(1, 1), pfa=1.5)

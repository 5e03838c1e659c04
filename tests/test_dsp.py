import builtins
import mmap
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
from scipy import ndimage
from scipy.signal import get_window

from tdmradar import (
    CfarConfig,
    InvalidParameterError,
    RadarParams,
    RangeDopplerCube,
    build_frame_plan,
    cfar_ca2d,
    default_params,
    noncoherent_integrate,
    range_doppler_map,
    simulate_frame,
    tdm_demux,
)
from tdmradar import dsp
from tdmradar.dsp import _window, parabolic_offset
from tdmradar.fileio import read_cube, write_cube
from tdmradar.simulate import DataCube

from conftest import line_array, peak_cell, single_target_scene


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
    return DataCube(samples=samples, plan=plan, params=params,
                    geometry=line_array(params.n_tx, params.n_rx))


def _resident_pages(array):
    """How many of the pages ``array`` spans are present in memory."""
    low, high = getattr(np.lib, "array_utils", np).byte_bounds(array)
    first, end = low // mmap.PAGESIZE, -(-high // mmap.PAGESIZE)
    flags = np.fromfile("/proc/self/pagemap", "<u8", end - first, offset=8 * first)
    return int((flags >> 63).sum())


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
        order = cube.plan.tx_order
        rebuilt = np.empty_like(cube.samples)
        for k in range(small_params.n_tx):
            rebuilt[:, order == k, :] = sub.values[k].transpose(0, 1, 2)
        np.testing.assert_array_equal(rebuilt, cube.samples)

    def test_dimension_mismatch(self, small_params):
        cube = synthetic_cube(small_params)
        # 16 chirps per TX, then the same 288 slots shared by 18 TX instead of 9
        for other in (RadarParams(77e9, 250e6, 20e-6, 128, 16, 9, 16, 21e-6, 27.2e-6),
                      RadarParams(77e9, 250e6, 20e-6, 128, 16, 18, 16, 21e-6, 27.2e-6)):
            with pytest.raises(InvalidParameterError, match="plan schedules"):
                tdm_demux(cube, build_frame_plan(other, 0))

    def test_other_frames_plan_refused(self, small_params):
        # frame 1's plan has frame 0's chirp and TX counts but its own PRI:
        # the sub-cubes would fold every velocity at 3.976 instead of 5.150 m/s
        cube = synthetic_cube(small_params)
        with pytest.raises(InvalidParameterError, match="plan schedules"):
            tdm_demux(cube, build_frame_plan(small_params, 1))


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
        rd = range_doppler_map(tdm_demux(DataCube(samples, plan, p, line_array(1, 1)), plan),
                               window="rect")
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

        rd = range_doppler_map(sub, window="rect")
        assert np.sum(np.abs(rd.values) ** 2) == pytest.approx(
            n_fast * n_slow * energy_in, rel=1e-9)

    def test_linearity(self, small_params):
        cube_x = synthetic_cube(small_params, seed=4)
        cube_y = synthetic_cube(small_params, seed=5)
        a, b = 2.5 - 1j, -0.75 + 0.2j
        plan = cube_x.plan
        mixed = replace(cube_x, samples=a * cube_x.samples + b * cube_y.samples)
        rd_mixed = range_doppler_map(tdm_demux(mixed, plan))
        rd_x = range_doppler_map(tdm_demux(cube_x, plan))
        rd_y = range_doppler_map(tdm_demux(cube_y, plan))
        lhs = rd_mixed.values
        rhs = a * rd_x.values + b * rd_y.values
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale

    @pytest.mark.parametrize("window", ["hann", "rect"], ids=["windows0", "windows1"])
    @pytest.mark.parametrize("from_file", [False, True])
    def test_one_sided_kernel_equals_cropped_map(self, small_params, tmp_path, window,
                                                 from_file):
        # the pipeline's one-sided kernel is the two-sided map cropped, bit
        # for bit, on complex128 cubes and on complex64 file cubes
        cube = synthetic_cube(small_params, seed=6)
        if from_file:
            write_cube(cube, tmp_path / "c.rdc")
            cube = read_cube(tmp_path / "c.rdc", small_params, cube.geometry)
        sub = tdm_demux(cube, cube.plan)
        n_fast = small_params.adc_samples_per_chirp
        full = range_doppler_map(sub, window)
        half = range_doppler_map(sub, window, one_sided=True)
        assert half.values.dtype == full.values.dtype == cube.samples.dtype
        assert half.values.shape == full.values.shape[:-1] + (n_fast // 2,)
        np.testing.assert_array_equal(half.values, full.values[..., :n_fast // 2])
        np.testing.assert_array_equal(half.velocity_axis, full.velocity_axis)
        np.testing.assert_array_equal(half.range_axis, full.range_axis[:n_fast // 2])

        # the (-1)^n slow-time factor is an exact fftshift of the Doppler axis
        n_slow = small_params.chirps_per_tx_per_frame
        w = (get_window(window, n_slow)[:, None]
             * get_window(window, n_fast)[None, :]).astype(cube.samples.real.dtype)
        ref = scipy.fft.fft(scipy.fft.fft(sub.values * w, axis=-1), axis=-2)
        np.testing.assert_array_equal(full.values, np.fft.fftshift(ref, axes=-2))

    @pytest.mark.parametrize("rows", [1, 3, 16])
    def test_mapped_cube_transforms_like_an_in_ram_copy(self, small_params, tmp_path,
                                                        monkeypatch, rows):
        # RX blocks of `rows` rows, each with its samples of all 9 TX (3 leaves a
        # partial last block): each block's pages are released once transformed,
        # which changes no bit of the map and none of the samples, read back
        # from the file
        monkeypatch.setattr(dsp, "_SCRATCH_BYTES", rows * small_params.n_tx * 32 * 128 * 8)
        cube = synthetic_cube(small_params, seed=4)
        write_cube(cube, tmp_path / "c.rdc")
        mapped = read_cube(tmp_path / "c.rdc", small_params, cube.geometry)
        copy = replace(mapped, samples=mapped.samples.copy())
        rd = [range_doppler_map(tdm_demux(c, c.plan), one_sided=True, dtype=np.complex64)
              for c in (mapped, copy)]
        if sys.platform == "linux":  # a block boundary inside a page keeps that page
            assert _resident_pages(mapped.samples) <= -(-16 // rows) + 1
        assert rd[0].values.tobytes() == rd[1].values.tobytes()
        assert mapped.samples.tobytes() == copy.samples.tobytes()

    @pytest.mark.skipif(sys.platform != "linux", reason="only Linux has a pagemap")
    def test_mapped_cube_opens_the_pagemap_once(self, small_params, tmp_path, monkeypatch):
        # the 16 RX rows go in 3 blocks of at most 7 at small params; the 3
        # release checks read /proc/self/pagemap through one file, opened and
        # closed by the call, and an in-RAM cube opens none
        cube = synthetic_cube(small_params, seed=4)
        write_cube(cube, tmp_path / "c.rdc")
        mapped = read_cube(tmp_path / "c.rdc", small_params, cube.geometry)
        real_open, pagemaps = builtins.open, []

        def counting_open(file, *args, **kwargs):
            opened = real_open(file, *args, **kwargs)
            if file == "/proc/self/pagemap":
                pagemaps.append(opened)
            return opened

        monkeypatch.setattr(builtins, "open", counting_open)
        for c, opens in ((cube, 0), (mapped, 1)):
            range_doppler_map(tdm_demux(c, c.plan), one_sided=True, dtype=np.complex64)
            assert len(pagemaps) == opens
        assert all(f.closed for f in pagemaps)

    @pytest.mark.parametrize("window", ["hann", "rect"])
    def test_complex64_kernel_equals_file_copy(self, small_params, tmp_path, window):
        # in complex64 the kernel rounds a complex128 cube's samples before
        # the window multiply, as write_cube does, so it gives the bits of the
        # cube's file copy; the default keeps complex128
        cube = synthetic_cube(small_params, seed=8)
        write_cube(cube, tmp_path / "c.rdc")
        copy = read_cube(tmp_path / "c.rdc", small_params, cube.geometry)
        sub = tdm_demux(cube, cube.plan)
        rd = range_doppler_map(sub, window, one_sided=True, dtype=np.complex64)
        ref = range_doppler_map(tdm_demux(copy, copy.plan), window, one_sided=True)
        assert rd.values.dtype == ref.values.dtype == np.complex64
        np.testing.assert_array_equal(rd.values, ref.values)
        assert range_doppler_map(sub, window, one_sided=True).values.dtype == np.complex128

    @pytest.mark.parametrize("dtype", [np.float32, np.int16, np.float64])
    def test_real_dtype_refused(self, small_params, dtype):
        sub = tdm_demux(synthetic_cube(small_params), build_frame_plan(small_params, 0))
        with pytest.raises(InvalidParameterError, match="not complex"):
            range_doppler_map(sub, one_sided=True, dtype=dtype)

    def test_velocity_axis_convention(self, small_params):
        rd = range_doppler_map(tdm_demux(synthetic_cube(small_params),
                                         build_frame_plan(small_params, 0)))
        assert rd.velocity_axis[0] == pytest.approx(-rd.folded_vmax_mps)
        assert rd.velocity_axis[rd.n_doppler // 2] == 0.0
        assert rd.velocity_bin_mps == pytest.approx(
            2 * rd.folded_vmax_mps / rd.n_doppler)

    @pytest.mark.parametrize("name", ["hann", "rect"])
    def test_window_matches_scipy_bit_for_bit(self, name):
        for n in [1, *range(2, 1025, 2), 3, 5, 7, 100]:
            w, ref = _window(name, n), get_window(name, n, fftbins=True)
            assert (w.dtype, w.shape, w.tobytes()) == (ref.dtype, ref.shape, ref.tobytes()), n

    def test_unknown_window_rejected(self):
        with pytest.raises(InvalidParameterError, match="'hann' or 'rect'"):
            _window("hamming", 64)


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

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("one_sided", [True, False])
    @pytest.mark.parametrize("at_default_params", [False, True])
    def test_bit_identical_to_one_numpy_sum(self, small_params, at_default_params, one_sided,
                                            dtype):
        # TX blocks: one TX each at default params; at small params all 9 in
        # one block, but 4, 4 and 1 for the two-sided complex128 cube
        p = default_params() if at_default_params else small_params
        n_range = p.adc_samples_per_chirp // 2 if one_sided else p.adc_samples_per_chirp
        shape = (p.n_tx, p.n_rx, p.chirps_per_tx_per_frame, n_range)
        real = np.random.default_rng(8).standard_normal(
            2 * int(np.prod(shape)), dtype=np.finfo(dtype).dtype)
        values = real.view(dtype).reshape(shape)
        rd = RangeDopplerCube(values, 1.0, 1.0, 1.0, build_frame_plan(p, 0), p)
        power = noncoherent_integrate(rd)
        expected = np.sum(np.abs(values) ** 2, axis=(0, 1))
        assert power.dtype == expected.dtype
        assert power.tobytes() == expected.tobytes()

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

    @pytest.mark.parametrize("guard", [(4, 2), (0, 3), (2, 0), (0, 0)])
    def test_local_max_equals_ndimage_maximum_filter(self, guard):
        # with pfa just below 1 every cell passes the threshold, so the
        # detections are the cells that are the maximum of their guard window;
        # rounding makes ties, which count as maxima
        rng = np.random.default_rng(sum(guard))
        power = np.round(rng.standard_exponential((32, 64)), 1) + 0.05
        cfg = CfarConfig(training=(3, 2), guard=guard, pfa=1.0 - 1e-12)
        local_max = ndimage.maximum_filter(power, size=(2 * guard[1] + 1, 2 * guard[0] + 1),
                                           mode=("wrap", "constant"), cval=0.0)
        expected = [tuple(cell) for cell in np.argwhere(power >= local_max)]
        assert [(d.doppler_bin, d.range_bin) for d in cfar_ca2d(power, cfg)] == expected

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

    def test_range_offset_on_float64_map(self):
        # range is refined like velocity, on the float64 map: a zero-power
        # neighbour in a float32 map reads the 1e-300 floor, not log10(0);
        # the first and last range bins keep offset 0
        power = np.ones((64, 128), dtype=np.float32)
        power[20, 40], power[20, 41] = 1000.0, 0.0
        power[30, 0] = power[40, 127] = 1000.0
        dets = cfar_ca2d(power, CfarConfig(training=(6, 4), guard=(2, 2), pfa=1e-3))
        offsets = {(d.doppler_bin, d.range_bin): d.range_offset for d in dets}
        assert offsets[20, 40] == parabolic_offset(np.array([1.0, 1000.0, 0.0])) < 0.0
        assert offsets[30, 0] == offsets[40, 127] == 0.0

    @pytest.mark.parametrize("n_velocities", [10, 63, 65, 100])
    def test_velocity_axis_must_match_doppler_bins(self, n_velocities):
        # too short used to end in an IndexError, too long in wrong velocities
        power = np.ones((64, 128))
        power[20, 40] = 1000.0
        cfg = CfarConfig(training=(6, 4), guard=(2, 2), pfa=1e-3)
        assert len(cfar_ca2d(power, cfg, velocity_axis=np.arange(64) * 0.1)) == 1
        with pytest.raises(InvalidParameterError, match="one velocity per Doppler bin"):
            cfar_ca2d(power, cfg, velocity_axis=np.arange(n_velocities) * 0.1)

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
        # lists are stored as tuples, so the frozen config stays hashable
        assert hash(CfarConfig(training=[8, 4], guard=[4, 2])) == hash(CfarConfig())

    @pytest.mark.parametrize("kwargs", [
        {"training": (8.5, 4)}, {"guard": (1.5, 0)}, {"training": (8,)},
        {"training": (True, 4)}, {"guard": (2, False)}, {"training": 8},
        {"guard": (2, -1)}, {"pfa": "0.1"}, {"pfa": float("nan")}, {"pfa": True},
    ])
    def test_malformed_config_refused(self, kwargs):
        # these used to fail inside np.pad or while unpacking, or (bools) to run
        with pytest.raises(InvalidParameterError, match=next(iter(kwargs))):
            CfarConfig(**kwargs)

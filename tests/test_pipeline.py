import gc
import sys
import threading
from dataclasses import MISSING, astuple, fields, replace

import numpy as np
import pytest

from tdmradar import (
    ArrayGeometry,
    CalibrationVector,
    CfarConfig,
    InvalidParameterError,
    PipelineResult,
    PointTarget,
    RadarParams,
    RangeDopplerCube,
    Scene,
    UnsupportedGeometryError,
    build_virtual_array,
    cfar_ca2d,
    default_params,
    inject_channel_errors,
    noncoherent_integrate,
    range_doppler_map,
    pipeline,
    polar_to_cartesian,
    range_azimuth_map,
    run_pipeline,
    simulate_frame_pair,
    tdm_demux,
)
from tdmradar.simulate import _MAX_AMPLITUDE

from conftest import line_array, random_scene, single_target_scene


@pytest.fixture(scope="module")
def pipeline_params():
    # Table-III waveform with 64 chirps/TX: frame-a Doppler bin 0.161 m/s
    return RadarParams(77e9, 250e6, 20e-6, 128, 64, 9, 16, 21.0e-6, 27.2e-6)


def test_single_moving_target_example(pipeline_params, geometry):
    scene = single_target_scene(range_m=30.0, velocity_mps=6.0, azimuth_deg=10.0,
                                snr_db=20.0, seed=11)
    a, b = simulate_frame_pair(scene, pipeline_params, geometry)
    result = run_pipeline(a, b, pipeline_params, geometry)
    assert len(result.detections) >= 1
    det = max(result.detections, key=lambda d: d.power_db)
    assert det.range_m == pytest.approx(30.0, abs=0.3)
    assert det.velocity_mps == pytest.approx(6.0, abs=0.1)
    assert det.azimuth_deg == pytest.approx(10.0, abs=0.6)


def test_static_three_target_scene(pipeline_params, geometry):
    scene = Scene(targets=(
        PointTarget(range_m=10.0, velocity_mps=0.0, azimuth_deg=-20.0),
        PointTarget(range_m=20.0, velocity_mps=0.0, azimuth_deg=0.0),
        PointTarget(range_m=30.0, velocity_mps=0.0, azimuth_deg=15.0),
    ), snr_db=20.0, rng_seed=5)
    a, b = simulate_frame_pair(scene, pipeline_params, geometry)
    result = run_pipeline(a, b, pipeline_params, geometry)
    assert len(result.detections) >= 3
    from tdmradar import folded_vmax

    half_bin = folded_vmax(pipeline_params, 0) / 64  # half of the 2*vmax/64 bin
    strongest = sorted(result.detections, key=lambda d: -d.power_db)[:3]
    for det in strongest:
        assert abs(det.velocity_mps) <= half_bin + 1e-9


def test_empty_scene_false_alarm_count(pipeline_params, geometry):
    # pfa 1e-4 on a (n_doppler x n_range) map: expectation pfa * cells per map
    cfg = CfarConfig(training=(8, 4), guard=(4, 2), pfa=1e-4)
    total_cells = 0
    total_alarms = 0
    for seed in range(8):
        scene = Scene(targets=(), snr_db=20.0, rng_seed=seed)
        a, b = simulate_frame_pair(scene, pipeline_params, geometry)
        for cube in (a, b):
            rd = range_doppler_map(tdm_demux(cube, cube.plan))
            power = noncoherent_integrate(rd)
            total_alarms += len(cfar_ca2d(power, cfg))
            total_cells += power.size
    expected = total_cells * 1e-4
    assert expected / 3 <= max(total_alarms, 0.34 * expected) <= 3 * expected


def test_empty_scene_pipeline_runs(pipeline_params, geometry):
    scene = Scene(targets=(), snr_db=20.0, rng_seed=0)
    a, b = simulate_frame_pair(scene, pipeline_params, geometry)
    result = run_pipeline(a, b, pipeline_params, geometry)
    # one-sided range axis: n_fast/2 rows, all below max_unambiguous_range_m
    assert result.map_a.power_db.shape == (64, 256)


@pytest.mark.parametrize("seed", [*range(5), "two_targets"])
def test_in_memory_run_equals_file_cube_run(small_params, pipeline_params, geometry,
                                            tmp_path, seed):
    # the chain computes in complex64 from the range FFT on, so a simulated
    # complex128 pair and its complex64 file copy give the same detections
    # and maps, bit for bit: 12-target scenes at small params, and two
    # targets at 64 chirps per TX
    from tdmradar.fileio import read_cube, write_cube

    if seed == "two_targets":
        params = pipeline_params
        scene = Scene(targets=(
            PointTarget(range_m=12.0, velocity_mps=7.0, azimuth_deg=-15.0),
            PointTarget(range_m=31.0, velocity_mps=-3.0, azimuth_deg=8.0, amplitude=0.6),
        ), snr_db=20.0, rng_seed=21)
    else:
        params, scene = small_params, random_scene(small_params, seed)
    a, b = simulate_frame_pair(scene, params, geometry)
    loaded = []
    for tag, cube in (("a", a), ("b", b)):
        write_cube(cube, tmp_path / f"{tag}.rdc")
        loaded.append(read_cube(tmp_path / f"{tag}.rdc", params, geometry))
    in_memory = run_pipeline(a, b, params, geometry)
    from_files = run_pipeline(*loaded, params, geometry)

    assert len(in_memory.detections) >= min(len(scene.targets), 6)
    for field_name in ("detections", "detections_a", "detections_b"):
        assert ([astuple(d) for d in getattr(in_memory, field_name)]
                == [astuple(d) for d in getattr(from_files, field_name)])
    np.testing.assert_array_equal(in_memory.map_a.power_db, from_files.map_a.power_db)
    np.testing.assert_array_equal(in_memory.map_b.power_db, from_files.map_b.power_db)


def test_calibrated_run_matches_clean_run(small_params, geometry):
    # unit-modulus channel phase errors leave the NCI, and so the CFAR, as
    # they are; with the calibration the run gives the clean run's
    # detections and maps, without it every azimuth is wrong
    a, b = simulate_frame_pair(random_scene(small_params, 0), small_params, geometry)
    gains = np.exp(1j * np.random.default_rng(100).uniform(-np.pi, np.pi, (9, 16)))
    corrupted = [inject_channel_errors(cube, gains) for cube in (a, b)]
    clean = run_pipeline(a, b, small_params, geometry)
    calibrated = run_pipeline(*corrupted, small_params, geometry,
                              cal=CalibrationVector(gains, 5.0, 0.0, geometry))
    uncalibrated = run_pipeline(*corrupted, small_params, geometry)

    assert len(clean.detections) >= 6
    assert ([(d.range_bin, d.doppler_bin_a, d.doppler_bin_b) for d in calibrated.detections]
            == [(d.range_bin, d.doppler_bin_a, d.doppler_bin_b) for d in clean.detections])
    for det, clean_det in zip(calibrated.detections, clean.detections):
        # the folded velocities differ in the last bits of the NCI
        assert det.velocity_mps == pytest.approx(clean_det.velocity_mps, abs=1e-6)
        assert det.azimuth_deg == clean_det.azimuth_deg
    for name in ("map_a", "map_b"):
        clean_db, calibrated_db = getattr(clean, name).power_db, getattr(calibrated, name).power_db
        above_floor = clean_db > clean_db.max() - 100.0
        np.testing.assert_allclose(calibrated_db[above_floor], clean_db[above_floor],
                                   rtol=0, atol=1e-3)

    clean_azimuth = {(d.range_bin, d.doppler_bin_a): d.azimuth_deg for d in clean.detections}
    assert len(uncalibrated.detections) >= 6
    for det in uncalibrated.detections:
        cell = (det.range_bin, det.doppler_bin_a)
        assert abs(det.azimuth_deg - clean_azimuth.get(cell, np.inf)) > 1.0


def test_frame_parity_validated(pipeline_params, geometry):
    scene = single_target_scene(range_m=20.0)
    a, _ = simulate_frame_pair(scene, pipeline_params, geometry)
    from tdmradar import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        run_pipeline(a, a, pipeline_params, geometry)


def test_cartesian_outputs(pipeline_params, geometry):
    scene = single_target_scene(range_m=20.0, azimuth_deg=10.0)
    a, b = simulate_frame_pair(scene, pipeline_params, geometry)
    result = run_pipeline(a, b, pipeline_params, geometry, cartesian=True)
    assert result.map_a.kind == "cartesian"
    # the lone reflector is the global maximum of the BEV map
    xi, yi = np.unravel_index(np.argmax(result.map_a.power_db), result.map_a.power_db.shape)
    x = result.map_a.axis0()[xi]
    y = result.map_a.axis1()[yi]
    assert np.hypot(x, y) == pytest.approx(20.0, abs=0.7)
    assert np.degrees(np.arctan2(x, y)) == pytest.approx(10.0, abs=1.0)


@pytest.mark.parametrize("cartesian", [False, True])
def test_one_map_per_frame_in_the_asked_grid(small_params, geometry, cartesian):
    a, b = simulate_frame_pair(single_target_scene(range_m=20.0), small_params, geometry)
    result = run_pipeline(a, b, small_params, geometry, cartesian=cartesian)
    assert result.map_a.kind == result.map_b.kind == ("cartesian" if cartesian else "polar")
    assert [(f.name, f.default, f.default_factory) for f in fields(PipelineResult)] == [
        (name, MISSING, MISSING)
        for name in ("map_a", "map_b", "detections", "detections_a", "detections_b")]


def test_geometry_without_overlap_refused(small_params, geometry):
    # TX 16 apart and RX 0..15 reach each of the 144 slots once: no two
    # channels share a slot, so no overlap phase can pick an alias
    a, b = simulate_frame_pair(single_target_scene(range_m=20.0), small_params, geometry)
    sparse = ArrayGeometry(tuple(range(0, 144, 16)), tuple(range(16)))
    assert issubclass(UnsupportedGeometryError, InvalidParameterError)
    with pytest.raises(InvalidParameterError, match="needs overlapped virtual elements"):
        run_pipeline(a, b, small_params, sparse)


def test_unfolds_beyond_single_frame_vmax(pipeline_params, geometry):
    # |v| far above both folded limits (5.15/3.98 m/s)
    for v_true, seed in ((17.0, 3), (-24.5, 4), (31.0, 5)):
        scene = single_target_scene(range_m=25.0, velocity_mps=v_true,
                                    azimuth_deg=-5.0, snr_db=20.0, seed=seed)
        a, b = simulate_frame_pair(scene, pipeline_params, geometry)
        result = run_pipeline(a, b, pipeline_params, geometry)
        assert result.detections, f"no detection for v={v_true}"
        det = max(result.detections, key=lambda d: d.power_db)
        from tdmradar import folded_vmax

        half_bin = folded_vmax(pipeline_params, 0) / 64
        assert det.velocity_mps == pytest.approx(v_true, abs=half_bin + 1e-9)


@pytest.mark.parametrize("v_true", [30.0, -30.0, 13.7])
def test_default_params_velocity_has_no_scale_bias(geometry, v_true):
    # Doppler is converted at the sampled band's centre; at the carrier these
    # lone 20 dB targets read +0.049, -0.049 and +0.022 m/s off, the first two
    # beyond velocity_ok's 0.040 m/s.  Each aliases in both frames.
    params = default_params()
    scene = single_target_scene(range_m=40.0, velocity_mps=v_true, azimuth_deg=10.0,
                                snr_db=20.0, seed=7)
    a, b = simulate_frame_pair(scene, params, geometry)
    det = max(run_pipeline(a, b, params, geometry).detections, key=lambda d: d.power_db)
    assert det.velocity_mps == pytest.approx(v_true, abs=0.01)


def test_detection_azimuth_matches_map_peak(pipeline_params, geometry):
    # the per-detection and the per-map beamformer agree on every detection
    rng = np.random.default_rng(4)
    for seed in range(20):
        scene = single_target_scene(range_m=rng.uniform(5.0, 35.0),
                                    velocity_mps=rng.uniform(-20.0, 20.0),
                                    azimuth_deg=rng.uniform(-30.0, 30.0),
                                    snr_db=20.0, seed=seed)
        a, b = simulate_frame_pair(scene, pipeline_params, geometry)
        result = run_pipeline(a, b, pipeline_params, geometry)
        assert result.detections, f"no detection for seed {seed}"
        sin_axis = result.map_a.axis1()
        for det in result.detections:
            peak = np.argmax(result.map_a.power_db[det.range_bin])
            assert det.azimuth_deg == np.degrees(np.arcsin(sin_axis[peak])), seed


def test_calibration_at_the_level_limit_keeps_the_detection(pipeline_params, geometry):
    # uniform gains of either limit's magnitude scale the complex64 cube by
    # 1/4.29e9 or 4.29e9 after the CFAR: the maps stay finite and the target's
    # velocity and azimuth are the uncalibrated run's
    scene = single_target_scene(range_m=20.0, velocity_mps=3.0, azimuth_deg=10.0, snr_db=20.0)
    a, b = simulate_frame_pair(scene, pipeline_params, geometry)
    (plain,) = run_pipeline(a, b, pipeline_params, geometry).detections
    for gain in (_MAX_AMPLITUDE, 1.0 / _MAX_AMPLITUDE):
        cal = CalibrationVector(np.full((9, 16), gain, dtype=complex), 5.0, 0.0, geometry)
        result = run_pipeline(a, b, pipeline_params, geometry, cal=cal)
        assert np.isfinite(result.map_a.power_db).all()
        assert np.isfinite(result.map_b.power_db).all()
        (det,) = result.detections
        assert det.velocity_mps == pytest.approx(plain.velocity_mps, abs=1e-6)
        assert det.azimuth_deg == plain.azimuth_deg
    assert plain.velocity_mps == pytest.approx(3.0, abs=0.05)
    assert plain.azimuth_deg == pytest.approx(10.0, abs=0.5)


@pytest.mark.parametrize("shape", [(10, 17), (2, 3)])
def test_calibration_shape_checked_before_any_fft(pipeline_params, geometry,
                                                  monkeypatch, shape):
    a, b = simulate_frame_pair(single_target_scene(range_m=20.0), pipeline_params, geometry)

    def no_fft(*args, **kwargs):
        raise AssertionError("the range/Doppler step ran before the calibration check")

    monkeypatch.setattr(pipeline, "range_doppler_map", no_fft)
    cal = CalibrationVector(np.ones(shape, dtype=complex), 5.0, 0.0, line_array(*shape))
    with pytest.raises(InvalidParameterError, match="calibration"):
        run_pipeline(a, b, pipeline_params, geometry, cal=cal)



def test_calibration_from_another_geometry_refused(pipeline_params, geometry, monkeypatch):
    # the same counts, the RX positions reversed: the gains would fit the cube's
    # shape and be applied to the wrong channels
    a, b = simulate_frame_pair(single_target_scene(range_m=20.0), pipeline_params, geometry)
    permuted = ArrayGeometry(geometry.tx_positions, geometry.rx_positions[::-1])

    def no_fft(*args, **kwargs):
        raise AssertionError("the range/Doppler step ran before the calibration check")

    monkeypatch.setattr(pipeline, "range_doppler_map", no_fft)
    cal = CalibrationVector(np.ones((9, 16), dtype=complex), 5.0, 0.0, permuted)
    with pytest.raises(InvalidParameterError, match="calibration was measured on another array"):
        run_pipeline(a, b, pipeline_params, geometry, cal=cal)

@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_samples_rejected(pipeline_params, geometry, bad):
    scene = single_target_scene(range_m=20.0, azimuth_deg=5.0, snr_db=20.0)
    a, b = simulate_frame_pair(scene, pipeline_params, geometry)
    a.samples[0, 0, 0] = bad
    with pytest.raises(InvalidParameterError, match=r"frame 0 has non-finite"):
        run_pipeline(a, b, pipeline_params, geometry)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_frame_b_rejected(pipeline_params, geometry, bad):
    # frame b's range/Doppler step runs on a worker thread; its bad sample
    # still ends in the same data error
    scene = single_target_scene(range_m=20.0, azimuth_deg=5.0, snr_db=20.0)
    a, b = simulate_frame_pair(scene, pipeline_params, geometry)
    b.samples[3, 7, 11] = bad
    with pytest.raises(InvalidParameterError, match=r"frame 1 has non-finite"):
        run_pipeline(a, b, pipeline_params, geometry)


def test_worker_error_raised(pipeline_params, geometry, monkeypatch):
    # frame b's range/Doppler step and its CFAR both run on the worker thread
    a, b = simulate_frame_pair(single_target_scene(range_m=20.0), pipeline_params, geometry)
    for stage in ("range_doppler_map", "cfar_ca2d"):
        original = getattr(pipeline, stage)

        def fail_on_frame_b(first, *args, **kwargs):
            frame = kwargs["frame_index"] if stage == "cfar_ca2d" else first.plan.frame_index
            if frame == 1:
                raise MemoryError(f"frame b {stage}")
            return original(first, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(pipeline, stage, fail_on_frame_b)
            with pytest.raises(MemoryError, match=f"frame b {stage}"):
                run_pipeline(a, b, pipeline_params, geometry)


def test_one_range_doppler_call_per_frame(pipeline_params, geometry, monkeypatch):
    # run_pipeline reaches the transform through the public name (the one a
    # tracer wraps), once per frame, one-sided and in complex64
    a, b = simulate_frame_pair(single_target_scene(range_m=20.0), pipeline_params, geometry)
    calls, original = [], pipeline.range_doppler_map

    def spy(sub, *args, **kwargs):
        rd = original(sub, *args, **kwargs)
        calls.append((sub.plan.frame_index, args, kwargs, rd.values.dtype, rd.values.shape))
        return rd

    monkeypatch.setattr(pipeline, "range_doppler_map", spy)
    run_pipeline(a, b, pipeline_params, geometry)
    p = pipeline_params
    shape = (p.n_tx, p.n_rx, p.chirps_per_tx_per_frame, p.adc_samples_per_chirp // 2)
    assert sorted(calls, key=lambda call: call[0]) == [
        (frame, (), {"one_sided": True, "dtype": np.complex64}, np.complex64, shape)
        for frame in (0, 1)]


def test_cartesian_resample_holds_no_range_doppler_cube(small_params, geometry, monkeypatch):
    # both polar maps are beamformed, then the two range/Doppler cubes are
    # dropped before either frame's resample builds its lookup (2 were held)
    a, b = simulate_frame_pair(single_target_scene(range_m=20.0), small_params, geometry)
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, RangeDopplerCube)]
    held, original = [], pipeline.polar_to_cartesian

    def spy(pmap):
        held.append(sum(isinstance(o, RangeDopplerCube) for o in gc.get_objects()) - len(before))
        return original(pmap)

    monkeypatch.setattr(pipeline, "polar_to_cartesian", spy)
    run_pipeline(a, b, small_params, geometry, cartesian=True)
    assert held == [0, 0]


def test_one_nci_call_per_frame(pipeline_params, geometry, monkeypatch):
    # the CFAR's NCI map is the one the range-azimuth map ranks its Doppler
    # bins by: one noncoherent_integrate call per frame, and the map is
    # handed that call's array
    a, b = simulate_frame_pair(single_target_scene(range_m=20.0), pipeline_params, geometry)
    calls, ranked = [], []
    original_nci, original_map = pipeline.noncoherent_integrate, pipeline.range_azimuth_map

    def nci_spy(rd):
        power = original_nci(rd)
        calls.append((rd.plan.frame_index, power))
        return power

    def map_spy(rd, varray, power, **kwargs):
        ranked.append((rd.plan.frame_index, power))
        return original_map(rd, varray, power, **kwargs)

    monkeypatch.setattr(pipeline, "noncoherent_integrate", nci_spy)
    monkeypatch.setattr(pipeline, "range_azimuth_map", map_spy)
    run_pipeline(a, b, pipeline_params, geometry)
    assert sorted(frame for frame, _ in calls) == [0, 1]
    made, used = dict(calls), dict(ranked)
    assert sorted(used) == [0, 1] and all(used[frame] is made[frame] for frame in (0, 1))


def test_frame_detections_match_calling_thread_rebuild(pipeline_params, geometry):
    # frame b's NCI and CFAR run on the worker thread; both frames'
    # detections equal a rebuild from the public stages on this thread
    scene = Scene(targets=(
        PointTarget(range_m=12.0, velocity_mps=7.0, azimuth_deg=-15.0),
        PointTarget(range_m=31.0, velocity_mps=-3.0, azimuth_deg=8.0, amplitude=0.6),
        PointTarget(range_m=24.0, velocity_mps=19.0, azimuth_deg=30.0, amplitude=0.8),
    ), snr_db=20.0, rng_seed=33)
    a, b = simulate_frame_pair(scene, pipeline_params, geometry)
    result = run_pipeline(a, b, pipeline_params, geometry)
    n_keep = pipeline_params.adc_samples_per_chirp // 2
    for cube, detections in ((a, result.detections_a), (b, result.detections_b)):
        # the pipeline transforms in complex64, the samples rounded first
        cube = replace(cube, samples=cube.samples.astype(np.complex64))
        rd = range_doppler_map(tdm_demux(cube, cube.plan))
        rd = replace(rd, values=rd.values[..., :n_keep])
        rebuilt = cfar_ca2d(noncoherent_integrate(rd), CfarConfig(),
                            velocity_axis=rd.velocity_axis, frame_index=cube.plan.frame_index)
        assert len(detections) >= 3
        assert [astuple(d) for d in detections] == [astuple(d) for d in rebuilt]


def test_params_without_crt_margin_rejected(small_params, geometry):
    # with frame b's PRI twice frame a's, vb = va/2 and every frame-a alias
    # candidate meets a frame-b one: the CRT margin is 0
    params = replace(small_params, pri_frame_b_s=2 * small_params.pri_frame_a_s)
    a, b = simulate_frame_pair(single_target_scene(range_m=20.0), params, geometry)
    with pytest.raises(InvalidParameterError, match="CRT margin 0 m/s is not above"):
        run_pipeline(a, b, params, geometry)


def test_cube_params_must_match(small_params, geometry):
    # frames simulated at small_params are refused under default_params()
    # and under a 76 GHz params, whose wavelength the unfolding would read
    # while the FFT axes read the cubes'; so is a pair made at two params
    scene = single_target_scene(range_m=20.0)
    a, b = simulate_frame_pair(scene, small_params, geometry)
    at_76ghz = replace(small_params, carrier_frequency_hz=76e9)
    for params in (default_params(), at_76ghz):
        with pytest.raises(InvalidParameterError, match="other radar parameters"):
            run_pipeline(a, b, params, geometry)
    _, b_76ghz = simulate_frame_pair(scene, at_76ghz, geometry)
    with pytest.raises(InvalidParameterError, match="other radar parameters"):
        run_pipeline(a, b_76ghz, small_params, geometry)


def test_cube_geometry_must_match(small_params, geometry):
    # a pair recorded by the default array is refused under that array with
    # its RX order reversed, which has the same counts but would mirror every
    # azimuth; so is a pair recorded by two arrays
    scene = single_target_scene(range_m=20.0, velocity_mps=3.0, azimuth_deg=15.0)
    a, b = simulate_frame_pair(scene, small_params, geometry)
    reversed_rx = ArrayGeometry(geometry.tx_positions, geometry.rx_positions[::-1])
    with pytest.raises(InvalidParameterError, match="recorded by another array geometry"):
        run_pipeline(a, b, small_params, reversed_rx)
    _, b_reversed = simulate_frame_pair(scene, small_params, reversed_rx)
    with pytest.raises(InvalidParameterError, match="recorded by another array geometry"):
        run_pipeline(a, b_reversed, small_params, geometry)


def test_pipeline_keeps_one_worker_thread(small_params, geometry):
    # both halves of every call run frame b on the one long-lived worker;
    # frame b's maps, made there, equal a rebuild on this thread
    threads = threading.active_count()
    scene = Scene(targets=(PointTarget(range_m=12.0, velocity_mps=7.0, azimuth_deg=-15.0),
                           PointTarget(range_m=24.0, velocity_mps=-3.0, azimuth_deg=8.0)),
                  snr_db=20.0, rng_seed=8)
    a, b = simulate_frame_pair(scene, small_params, geometry)
    results = {cartesian: run_pipeline(a, b, small_params, geometry, cartesian=cartesian)
               for cartesian in (False, True, True)}
    assert threading.active_count() <= threads + 1
    result = results[False]

    rd_b, power_b, _ = pipeline._process_frame(b, CfarConfig(), None)
    velocities = rd_b.velocity_axis.copy()
    for det in result.detections:
        if det.doppler_bin_b is not None:
            velocities[det.doppler_bin_b] = det.velocity_mps
    polar_b = range_azimuth_map(rd_b, build_virtual_array(geometry), power_b,
                                velocities=velocities)
    assert np.array_equal(polar_b.power_db, result.map_b.power_db)
    assert np.array_equal(polar_to_cartesian(polar_b).power_db, results[True].map_b.power_db)


def test_no_array_formatting_on_success_path(small_params, geometry):
    # a refusal message is built only when a check refuses: simulating and
    # processing a 6-target scene, on this thread and on the frame-b worker,
    # never prints an array
    from tdmradar.simulate import _frame_pair

    printed = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.endswith("arrayprint.py"):
            printed.append(frame.f_code.co_name)

    _frame_pair(lambda: sys.setprofile(hook), lambda: sys.setprofile(hook))
    try:
        a, b = simulate_frame_pair(random_scene(small_params, 3, n_targets=6),
                                   small_params, geometry)
        result = run_pipeline(a, b, small_params, geometry)
    finally:
        _frame_pair(lambda: sys.setprofile(None), lambda: sys.setprofile(None))
    assert len(result.detections) >= 3
    assert not printed, f"{len(printed)} calls into numpy's arrayprint"


def test_aperture_wider_than_angle_grid_rejected(small_params):
    # 305 ULA slots do not fit the 256-point angle FFT: the map is refused,
    # not cut to the first 256 slots (run_pipeline refuses them before the
    # map; a direct caller of range_azimuth_map meets the map's own check)
    geometry = ArrayGeometry((0, 4), (0, 1, 2, 3, 4, 300))
    params = replace(small_params, n_tx=2, n_rx=6)
    a, _ = simulate_frame_pair(Scene(targets=()), params, geometry)
    rd = range_doppler_map(tdm_demux(a, a.plan), one_sided=True)
    with pytest.raises(InvalidParameterError, match="256-bin angle grid smaller than the 305-slot"):
        range_azimuth_map(rd, build_virtual_array(geometry), noncoherent_integrate(rd))


def test_aperture_checked_before_any_fft(small_params, monkeypatch):
    geometry = ArrayGeometry((0, 4), (0, 1, 2, 3, 4, 300))
    params = replace(small_params, n_tx=2, n_rx=6)
    a, b = simulate_frame_pair(Scene(targets=()), params, geometry)

    def no_fft(*args, **kwargs):
        raise AssertionError("the range/Doppler step ran before the aperture check")

    monkeypatch.setattr(pipeline, "range_doppler_map", no_fft)
    with pytest.raises(InvalidParameterError, match="256-bin angle grid smaller than the 305-slot"):
        run_pipeline(a, b, params, geometry)


@pytest.mark.parametrize("tx_positions", [(0, 4), tuple(range(0, 40, 4))])
def test_geometry_must_match_params(small_params, geometry, tx_positions):
    # the maps take their channel count from the array; 2 or 10 TX against
    # the 9-TX params is refused, not indexed out of bounds or cut short
    a, b = simulate_frame_pair(single_target_scene(range_m=20.0), small_params, geometry)
    other = ArrayGeometry(tx_positions, geometry.rx_positions)
    with pytest.raises(InvalidParameterError, match=r"geometry of \(\d+, 16\) elements"):
        run_pipeline(a, b, small_params, other)

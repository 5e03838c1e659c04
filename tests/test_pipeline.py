import numpy as np
import pytest

from tdmradar import (
    CalibrationVector,
    CfarConfig,
    InvalidParameterError,
    PointTarget,
    RadarParams,
    Scene,
    cfar_ca2d,
    noncoherent_integrate,
    range_doppler_map,
    pipeline,
    run_pipeline,
    simulate_frame_pair,
    tdm_demux,
)

from conftest import single_target_scene


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


def test_file_cubes_match_in_memory_cubes(pipeline_params, geometry, tmp_path):
    # complex64 cubes read from files give the detections of the complex128
    # cubes they were written from
    from tdmradar.fileio import read_cube, write_cube

    scene = Scene(targets=(
        PointTarget(range_m=12.0, velocity_mps=7.0, azimuth_deg=-15.0),
        PointTarget(range_m=31.0, velocity_mps=-3.0, azimuth_deg=8.0, amplitude=0.6),
    ), snr_db=20.0, rng_seed=21)
    a, b = simulate_frame_pair(scene, pipeline_params, geometry)
    loaded = []
    for tag, cube in (("a", a), ("b", b)):
        write_cube(cube, tmp_path / f"{tag}.rdc")
        loaded.append(read_cube(tmp_path / f"{tag}.rdc", pipeline_params))
    in_memory = run_pipeline(a, b, pipeline_params, geometry)
    from_files = run_pipeline(*loaded, pipeline_params, geometry)

    from tdmradar import folded_vmax

    half_bin = folded_vmax(pipeline_params, 0) / 64
    assert len(in_memory.detections) >= 2
    assert len(from_files.detections) == len(in_memory.detections)
    for mem, fil in zip(in_memory.detections, from_files.detections):
        assert (fil.range_bin, fil.doppler_bin_a, fil.doppler_bin_b) == (
            mem.range_bin, mem.doppler_bin_a, mem.doppler_bin_b)
        assert fil.velocity_mps == pytest.approx(mem.velocity_mps, abs=half_bin)
        assert fil.azimuth_deg == pytest.approx(mem.azimuth_deg, abs=0.5)


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
    assert result.cartesian_a is not None
    assert result.cartesian_a.kind == "cartesian"
    # the lone reflector is the global maximum of the BEV map
    xi, yi = np.unravel_index(np.argmax(result.cartesian_a.power_db),
                              result.cartesian_a.power_db.shape)
    x = result.cartesian_a.axis0()[xi]
    y = result.cartesian_a.axis1()[yi]
    assert np.hypot(x, y) == pytest.approx(20.0, abs=0.7)
    assert np.degrees(np.arctan2(x, y)) == pytest.approx(10.0, abs=1.0)


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


@pytest.mark.parametrize("shape", [(10, 17), (2, 3)])
def test_calibration_shape_checked_before_any_fft(pipeline_params, geometry,
                                                  monkeypatch, shape):
    a, b = simulate_frame_pair(single_target_scene(range_m=20.0), pipeline_params, geometry)

    def no_fft(*args, **kwargs):
        raise AssertionError("range_doppler_map ran before the calibration check")

    monkeypatch.setattr(pipeline, "range_doppler_map", no_fft)
    cal = CalibrationVector(np.ones(shape, dtype=complex), 5.0, 0.0)
    with pytest.raises(InvalidParameterError, match="calibration"):
        run_pipeline(a, b, pipeline_params, geometry, cal=cal)


@pytest.mark.parametrize("bad", [
    np.nan,
    # the complex window multiply turns inf into NaN parts, and numpy warns
    pytest.param(np.inf, marks=pytest.mark.filterwarnings(
        "ignore:invalid value encountered in multiply:RuntimeWarning")),
])
def test_non_finite_samples_rejected(pipeline_params, geometry, bad):
    scene = single_target_scene(range_m=20.0, azimuth_deg=5.0, snr_db=20.0)
    a, b = simulate_frame_pair(scene, pipeline_params, geometry)
    a.samples[0, 0, 0] = bad
    with pytest.raises(InvalidParameterError, match=r"frame 0 has non-finite"):
        run_pipeline(a, b, pipeline_params, geometry)

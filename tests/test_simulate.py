import json
from pathlib import Path

import numpy as np
import pytest

from tdmradar import (
    InvalidParameterError,
    PointTarget,
    Scene,
    fold_velocity,
    inject_channel_errors,
    noncoherent_integrate,
    phase_migration,
    range_doppler_map,
    simulate_frame,
    simulate_frame_pair,
    tdm_demux,
)
from tdmradar import simulate

from conftest import peak_cell, single_target_scene


def test_empty_scene_noiseless_is_zero(small_params, geometry):
    scene = Scene(targets=(), snr_db=None)
    a, b = simulate_frame_pair(scene, small_params, geometry)
    assert not a.samples.any()
    assert not b.samples.any()


def test_static_target_range_bin(small_params, geometry):
    # 48 m with 0.5996 m bins lands in range bin 80
    p = small_params
    p = type(p)(**{**p.to_dict(), "adc_samples_per_chirp": 512})
    cube = simulate_frame(single_target_scene(range_m=48.0), p, geometry, 0)
    rd = range_doppler_map(tdm_demux(cube, cube.plan))
    r_bin, d_bin = peak_cell(noncoherent_integrate(rd))
    assert r_bin == 80
    assert d_bin == rd.n_doppler // 2


def test_frame_pair_folded_doppler_peaks(geometry):
    # 6 m/s against folded vmax 3.6 / 2.2 peaks at -1.2 and +1.6 m/s
    from tdmradar.demos import _params_for_vmax

    params = _params_for_vmax(3.6, 2.2)
    scene = single_target_scene(range_m=20.0, velocity_mps=6.0, azimuth_deg=5.0)
    expected = {0: -1.2, 1: 1.6}
    for cube in simulate_frame_pair(scene, params, geometry):
        rd = range_doppler_map(tdm_demux(cube, cube.plan))
        _, d_bin = peak_cell(noncoherent_integrate(rd))
        folded = rd.velocity_axis[d_bin]
        truth = expected[cube.plan.frame_index]
        assert folded == pytest.approx(truth, abs=rd.velocity_bin_mps / 2 + 1e-9)
        assert truth == pytest.approx(fold_velocity(6.0, rd.folded_vmax_mps), abs=1e-9)


def test_superposition(small_params, geometry):
    t1 = PointTarget(range_m=12.0, velocity_mps=2.0, azimuth_deg=-10.0)
    t2 = PointTarget(range_m=25.0, velocity_mps=-3.0, azimuth_deg=15.0, amplitude=0.5)
    both = simulate_frame(Scene(targets=(t1, t2)), small_params, geometry, 0)
    only1 = simulate_frame(Scene(targets=(t1,)), small_params, geometry, 0)
    only2 = simulate_frame(Scene(targets=(t2,)), small_params, geometry, 0)
    np.testing.assert_allclose(both.samples, only1.samples + only2.samples, rtol=0, atol=1e-12)


def test_amplitude_linearity(small_params, geometry):
    unit = simulate_frame(single_target_scene(amplitude=1.0), small_params, geometry, 0)
    scaled = simulate_frame(single_target_scene(amplitude=3.5), small_params, geometry, 0)
    np.testing.assert_allclose(scaled.samples, 3.5 * unit.samples, rtol=1e-12)


def test_determinism(small_params, geometry):
    scene = single_target_scene(snr_db=15.0, seed=42)
    a1, b1 = simulate_frame_pair(scene, small_params, geometry)
    a2, b2 = simulate_frame_pair(scene, small_params, geometry)
    assert np.array_equal(a1.samples, a2.samples)
    assert np.array_equal(b1.samples, b2.samples)


def test_frames_draw_independent_noise(small_params, geometry):
    scene = Scene(targets=(), snr_db=10.0, rng_seed=1)
    a, b = simulate_frame_pair(scene, small_params, geometry)
    assert not np.array_equal(a.samples, b.samples)


@pytest.mark.parametrize("chirps", [32, 4])
@pytest.mark.parametrize("frame_index", [0, 3])
def test_noise_matches_reference_stream(small_params, geometry, chirps, frame_index):
    # 4 chirps per TX leaves a partial last noise block, 32 ends on a full one.
    params = type(small_params)(**{**small_params.to_dict(), "chirps_per_tx_per_frame": chirps})
    scene = Scene(targets=(), snr_db=12.0, rng_seed=5)
    cube = simulate_frame(scene, params, geometry, frame_index)
    sigma = np.sqrt(params.adc_samples_per_chirp / 10.0 ** (12.0 / 10.0))
    n = np.random.default_rng([5, frame_index]).normal(scale=sigma / np.sqrt(2.0),
                                                       size=(2,) + cube.samples.shape)
    assert np.array_equal(cube.samples, n[0] + 1j * n[1])


def test_pair_equals_sequential_frames(small_params, geometry):
    scene = Scene(targets=(PointTarget(12.0, 3.0, -10.0), PointTarget(25.0, -7.0, 20.0, 0.4)),
                  snr_db=15.0, rng_seed=11)
    a, b = simulate_frame_pair(scene, small_params, geometry)
    seq_a = simulate_frame(scene, small_params, geometry, 0, 0.0)
    offset = seq_a.plan.chirp_count_total * seq_a.plan.slot_interval_s
    seq_b = simulate_frame(scene, small_params, geometry, 1, offset)
    assert np.array_equal(a.samples, seq_a.samples)
    assert np.array_equal(b.samples, seq_b.samples)


def test_pair_raises_worker_error(small_params, geometry, monkeypatch):
    add_noise = simulate._add_noise

    def failing(cube, scene):
        if cube.plan.frame_index == 1:
            raise RuntimeError("noise failed")
        add_noise(cube, scene)

    monkeypatch.setattr(simulate, "_add_noise", failing)
    with pytest.raises(RuntimeError, match="noise failed"):
        simulate_frame_pair(Scene(targets=(), snr_db=10.0), small_params, geometry)


def test_many_target_superposition(small_params, geometry):
    # 288 slots at the small params: the last block of slots is partial.
    rng = np.random.default_rng(4)
    r_max = small_params.max_unambiguous_range_m
    targets = tuple(PointTarget(rng.uniform(2.0, r_max - 2.0), rng.uniform(-10.0, 10.0),
                                rng.uniform(-60.0, 60.0), rng.uniform(0.1, 2.0))
                    for _ in range(40))
    both = simulate_frame(Scene(targets=targets), small_params, geometry, 1, 0.01)
    singles = sum(simulate_frame(Scene(targets=(t,)), small_params, geometry, 1, 0.01).samples
                  for t in targets)
    np.testing.assert_allclose(both.samples, singles, rtol=0, atol=1e-12)


def test_static_scene_constant_slow_time_phase(small_params, geometry):
    cube = simulate_frame(single_target_scene(range_m=18.0, azimuth_deg=12.0),
                          small_params, geometry, 0)
    sub = tdm_demux(cube, cube.plan)
    for k in range(small_params.n_tx):
        phases = np.angle(sub.values[k, 3, :, 7])
        spread = np.abs(np.angle(np.exp(1j * (phases - phases[0]))))
        assert spread.max() < 1e-9


def test_migration_emerges_from_schedule(small_params, geometry):
    # phase step between consecutive TX slots equals (4*pi/lambda)*v*dt
    v = 4.0
    cube = simulate_frame(single_target_scene(range_m=25.0, velocity_mps=v),
                          small_params, geometry, 0)
    phases = np.unwrap(np.angle(cube.samples[0, :small_params.n_tx, 0]))
    steps = np.diff(phases)
    expected = phase_migration(v, small_params.pri_frame_a_s, small_params.wavelength_m)
    assert np.abs(steps - expected).max() < 0.01 * expected


def test_target_beyond_unambiguous_range_rejected(small_params, geometry):
    r_max = small_params.max_unambiguous_range_m
    with pytest.raises(InvalidParameterError):
        simulate_frame(single_target_scene(range_m=r_max + 1.0), small_params, geometry, 0)


def test_receding_target_may_not_cross_rmax_during_frame(small_params, geometry):
    r_max = small_params.max_unambiguous_range_m
    scene = single_target_scene(range_m=r_max - 1e-4, velocity_mps=30.0)
    with pytest.raises(InvalidParameterError):
        simulate_frame(scene, small_params, geometry, 0)


def test_target_validation():
    with pytest.raises(InvalidParameterError):
        PointTarget(range_m=-5.0, velocity_mps=0.0, azimuth_deg=0.0)
    with pytest.raises(InvalidParameterError):
        PointTarget(range_m=5.0, velocity_mps=0.0, azimuth_deg=95.0)
    with pytest.raises(InvalidParameterError):
        PointTarget(range_m=5.0, velocity_mps=0.0, azimuth_deg=0.0, amplitude=0.0)


class TestInjectChannelErrors:
    def test_identity(self, small_params, geometry):
        cube = simulate_frame(single_target_scene(), small_params, geometry, 0)
        gains = np.ones((small_params.n_tx, small_params.n_rx), dtype=complex)
        out = inject_channel_errors(cube, gains)
        np.testing.assert_array_equal(out.samples, cube.samples)

    def test_single_pair_scaled_exactly(self, small_params, geometry):
        cube = simulate_frame(single_target_scene(), small_params, geometry, 0)
        gains = np.ones((small_params.n_tx, small_params.n_rx), dtype=complex)
        gains[2, 5] = 2.0 * np.exp(1j * np.pi / 2)
        out = inject_channel_errors(cube, gains)
        slots_tx2 = [s for s, k in enumerate(cube.plan.tx_order) if k == 2]
        other_slots = [s for s, k in enumerate(cube.plan.tx_order) if k != 2]
        np.testing.assert_allclose(out.samples[5, slots_tx2, :],
                                   gains[2, 5] * cube.samples[5, slots_tx2, :])
        np.testing.assert_array_equal(out.samples[5, other_slots, :],
                                      cube.samples[5, other_slots, :])
        np.testing.assert_array_equal(out.samples[4], cube.samples[4])

    def test_length_mismatch(self, small_params, geometry):
        cube = simulate_frame(single_target_scene(), small_params, geometry, 0)
        with pytest.raises(InvalidParameterError):
            inject_channel_errors(cube, np.ones(7))


def test_scene_json_round_trip(tmp_path):
    scene = Scene(targets=(PointTarget(10.0, 1.0, -5.0, 2.0),), snr_db=18.0, rng_seed=9)
    path = tmp_path / "scene.json"
    import json

    path.write_text(json.dumps(scene.to_dict()))
    loaded = Scene.from_json(path)
    assert loaded == scene


@pytest.mark.parametrize("name", ["scene_demo.json", "scene_corner_reflector.json"])
def test_shipped_scenes_load_unchanged(name):
    path = Path(__file__).resolve().parents[1] / "configs" / name
    assert Scene.from_json(path).to_dict() == json.loads(path.read_text())


@pytest.mark.parametrize("data", [
    {"targets": [{"range_m": "a"}]},
    {"targets": [{"range_m": 20.0, "speed": 5.0}]},
    {"targets": [{"velocity_mps": 5.0}]},
    {"targets": 5},
    {"snr_db": "x"},
    {"snr_db": float("nan")},
    {"rng_seed": 1.7},
    {"rng_seed": -1},
    [],
    {"snr": 10.0},
])
def test_malformed_scene_rejected(data):
    with pytest.raises(InvalidParameterError) as info:
        Scene.from_dict(data)
    # the error names the offending top-level key
    for key in set(data) - {"targets"}:
        assert key in str(info.value)


def test_negative_seed_rejected():
    with pytest.raises(InvalidParameterError):
        Scene(targets=(), rng_seed=-1)

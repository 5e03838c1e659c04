import hashlib
import json
import multiprocessing
import queue
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tdmradar import (
    DataCube,
    InvalidParameterError,
    PointTarget,
    Scene,
    fold_velocity,
    inject_channel_errors,
    noncoherent_integrate,
    phase_migration,
    range_doppler_map,
    run_pipeline,
    simulate_frame,
    simulate_frame_pair,
    tdm_demux,
)
from tdmradar import simulate
from tdmradar.config import SPEED_OF_LIGHT

from conftest import line_array, peak_cell, single_target_scene


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


def _twelve_targets(params):
    rng = np.random.default_rng(8)
    r_max = params.max_unambiguous_range_m
    return tuple(PointTarget(rng.uniform(4.0, r_max - 4.0), rng.uniform(-20.0, 20.0),
                             rng.uniform(-40.0, 40.0)) for _ in range(12))


_TWO_TARGETS = (PointTarget(12.0, 3.0, -10.0), PointTarget(25.0, -7.0, 20.0, 0.4))


@pytest.mark.parametrize("case", ["two_targets", "noiseless", "empty_noisy", "twelve_targets",
                                  "partial_blocks"])
def test_pair_equals_sequential_frames(small_params, geometry, case):
    # frame b draws its noise before its signal, frame a after; raw bits, so
    # a -0.0 against a +0.0 counts as a difference.  4 chirps per TX leaves
    # a partial last slot block and a partial last noise block.
    params = small_params
    if case == "partial_blocks":
        params = type(params)(**{**params.to_dict(), "chirps_per_tx_per_frame": 4})
    targets = {"empty_noisy": (), "twelve_targets": _twelve_targets(params)}.get(case, _TWO_TARGETS)
    scene = Scene(targets=targets, snr_db=None if case == "noiseless" else 15.0, rng_seed=11)
    a, b = simulate_frame_pair(scene, params, geometry)
    seq_a = simulate_frame(scene, params, geometry, 0, 0.0)
    offset = seq_a.plan.chirp_count_total * seq_a.plan.slot_interval_s
    seq_b = simulate_frame(scene, params, geometry, 1, offset)
    assert np.array_equal(a.samples.view(np.uint64), seq_a.samples.view(np.uint64))
    assert np.array_equal(b.samples.view(np.uint64), seq_b.samples.view(np.uint64))


def test_frame_b_draws_noise_first(small_params, geometry, monkeypatch):
    calls = []
    for name in ("_add_signal", "_add_noise"):
        monkeypatch.setattr(simulate, name,
                            lambda cube, *args, name=name: calls.append((cube.plan.frame_index, name)))
    simulate_frame_pair(Scene(targets=_TWO_TARGETS, snr_db=15.0), small_params, geometry)
    assert [c for c in calls if c[0] == 0] == [(0, "_add_signal"), (0, "_add_noise")]
    assert [c for c in calls if c[0] == 1] == [(1, "_add_noise"), (1, "_add_signal")]


def test_pair_refused_in_frame_b_does_no_work(small_params, geometry, monkeypatch):
    # the target stays below r_max through frame a and crosses it during
    # frame b: the pair is refused before either frame adds anything
    p = small_params
    end_a = p.frame_duration_s(0)
    end_b = end_a + p.frame_duration_s(1)
    target = PointTarget(p.max_unambiguous_range_m - 50.0 * (end_a + end_b) / 2, 50.0)
    scene = Scene(targets=(target,), snr_db=20.0)
    simulate_frame(scene, p, geometry, 0)
    calls = []
    for name in ("_add_signal", "_add_noise"):
        monkeypatch.setattr(simulate, name, lambda *args, name=name: calls.append(name))
    with pytest.raises(InvalidParameterError, match="leaves"):
        simulate_frame_pair(scene, p, geometry)
    assert calls == []


def test_pair_raises_worker_error(small_params, geometry, monkeypatch):
    add_noise = simulate._add_noise

    def failing(cube, scene):
        if cube.plan.frame_index == 1:
            raise RuntimeError("noise failed")
        add_noise(cube, scene)

    monkeypatch.setattr(simulate, "_add_noise", failing)
    with pytest.raises(RuntimeError, match="noise failed"):
        simulate_frame_pair(Scene(targets=(), snr_db=10.0), small_params, geometry)


def test_frame_pair_keeps_one_worker_thread(small_params, geometry):
    # every pair runs frame b on the same long-lived thread, never this one
    threads = threading.active_count()
    scene = Scene(targets=(PointTarget(12.0, 3.0, -10.0),), snr_db=15.0, rng_seed=2)
    for _ in range(3):
        simulate_frame_pair(scene, small_params, geometry)
    idents = {simulate._frame_pair(lambda: None, threading.get_ident)[1] for _ in range(5)}
    assert len(idents) == 1 and threading.get_ident() not in idents
    assert threading.active_count() <= threads + 1


def test_frame_a_error_raised_after_frame_b_finished():
    finished = threading.Event()

    def slow_frame_b():
        time.sleep(0.2)
        finished.set()

    def failing_frame_a():
        raise RuntimeError("frame a failed")

    with pytest.raises(RuntimeError, match="frame a failed"):
        simulate._frame_pair(failing_frame_a, slow_frame_b)
    assert finished.is_set()
    # the worker is still usable after the error
    assert simulate._frame_pair(lambda: "a", lambda: "b") == ("a", "b")


def _pair_digests(scene, params, geometry, results=None):
    digests = [hashlib.sha256(c.samples.tobytes()).hexdigest()
               for c in simulate_frame_pair(scene, params, geometry)]
    if results is not None:
        results.put(digests)
    return digests


def test_forked_child_makes_its_own_worker(small_params, geometry):
    # the parent's worker thread is not copied into a forked child; without a
    # worker of its own the child's first pair would wait forever
    scene = Scene(targets=(PointTarget(12.0, 3.0, -10.0),), snr_db=15.0, rng_seed=4)
    expected = _pair_digests(scene, small_params, geometry)
    context = multiprocessing.get_context("fork")
    results = context.Queue()
    child = context.Process(target=_pair_digests, args=(scene, small_params, geometry, results))
    child.start()
    try:
        digests = results.get(timeout=60)
    except queue.Empty:
        digests = None
    child.join(timeout=10)
    if child.is_alive():
        child.kill()
    assert digests == expected, "the forked child's frame pair did not finish"
    assert child.exitcode == 0


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


def test_matches_signal_model_sample_by_sample(small_params, geometry):
    # the module docstring's phase, evaluated for every sample on its own;
    # frame 1 starts 4 ms in, and its 288 slots end on a partial slot block
    p = small_params
    targets = (PointTarget(12.0, 0.0, -20.0, 0.7), PointTarget(21.5, 6.0, 5.0),
               PointTarget(31.0, -9.5, 33.0, 1.6))
    start = 0.004
    cube = simulate_frame(Scene(targets=targets), p, geometry, 1, start)
    n_slots = cube.plan.chirp_count_total
    assert n_slots % simulate._SLOT_BLOCK != 0

    slot, fast = np.arange(n_slots)[:, None], np.arange(p.adc_samples_per_chirp)[None, :]
    t_s = start + slot * p.pri_frame_b_s
    t = fast / p.sample_rate_hz
    pos_tx = np.asarray(geometry.tx_positions)[slot % p.n_tx]
    expected = np.zeros_like(cube.samples)
    for rx, pos_rx in enumerate(geometry.rx_positions):
        for target in targets:
            r = target.range_m + target.velocity_mps * t_s
            beat_hz = 2 * p.bandwidth_hz * r / (p.chirp_duration_s * SPEED_OF_LIGHT)
            phase = (2 * np.pi * 2 * p.carrier_frequency_hz * r / SPEED_OF_LIGHT
                     + 2 * np.pi * beat_hz * t
                     + np.pi * (pos_tx + pos_rx) * np.sin(np.radians(target.azimuth_deg)))
            expected[rx] += target.amplitude * (np.cos(phase) + 1j * np.sin(phase))
    np.testing.assert_allclose(cube.samples, expected, rtol=0, atol=1e-9)


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


@pytest.mark.parametrize("frame_index", [2.5, True, -1])
def test_malformed_frame_index_rejected(small_params, geometry, frame_index):
    with pytest.raises(InvalidParameterError, match="frame_index"):
        simulate_frame(single_target_scene(snr_db=20.0), small_params, geometry, frame_index)


@pytest.mark.parametrize("change", [{"slot_interval_s": 22e-6}, {"frame_index": 1}])
def test_cube_refuses_a_plan_its_params_would_not_make(small_params, geometry, change):
    # a 22 us PRI under 21 us params, and frame 1 on frame 0's 21 us schedule:
    # the samples fit either plan, but a cube file's digest assumes the params' one
    cube = simulate_frame(single_target_scene(), small_params, geometry, 0)
    with pytest.raises(InvalidParameterError, match="schedule under its params"):
        DataCube(samples=cube.samples, plan=replace(cube.plan, **change), params=small_params,
                 geometry=geometry)


@pytest.mark.parametrize("counts", [(8, 16), (9, 15)], ids=["tx", "rx"])
def test_cube_refuses_a_geometry_of_other_counts(small_params, geometry, counts):
    # a 9 TX x 16 RX cube cannot have been recorded by 8 TX or by 15 RX
    cube = simulate_frame(single_target_scene(), small_params, geometry, 0)
    with pytest.raises(InvalidParameterError, match=r"geometry of \(\d+, \d+\) elements"):
        DataCube(cube.samples, cube.plan, small_params, line_array(*counts))


def test_frame_beyond_the_platform_size_rejected(small_params, geometry):
    # 2**62 samples a chirp: the frame's complex128 samples would exceed
    # sys.maxsize bytes, so it is refused before any allocation
    params = replace(small_params, adc_samples_per_chirp=2**62)
    with pytest.raises(InvalidParameterError, match="exceeds"):
        simulate_frame(single_target_scene(), params, geometry, 0)


def test_target_validation():
    with pytest.raises(InvalidParameterError):
        PointTarget(range_m=-5.0, velocity_mps=0.0, azimuth_deg=0.0)
    with pytest.raises(InvalidParameterError):
        PointTarget(range_m=5.0, velocity_mps=0.0, azimuth_deg=95.0)
    with pytest.raises(InvalidParameterError):
        PointTarget(range_m=5.0, velocity_mps=0.0, azimuth_deg=0.0, amplitude=0.0)


def test_levels_at_the_limit_stay_finite_through_the_chain(small_params, geometry):
    # the loudest targets in the loudest noise, and in the faintest, rounded to
    # complex64 as a cube file stores them: every map cell stays finite
    loud = tuple(PointTarget(r, v, az, simulate._MAX_AMPLITUDE)
                 for r, v, az in ((12.0, 3.0, -10.0), (25.0, -4.0, 15.0)))
    for snr_db in (-simulate._LEVEL_LIMIT_DB, simulate._LEVEL_LIMIT_DB):
        frames = simulate_frame_pair(Scene(targets=loud, snr_db=snr_db, rng_seed=1),
                                     small_params, geometry)
        a, b = (replace(f, samples=f.samples.astype(np.complex64)) for f in frames)
        result = run_pipeline(a, b, small_params, geometry, cartesian=True)
        assert np.isfinite(result.map_a.power_db).all()
        assert np.isfinite(result.map_b.power_db).all()


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

    def test_transposed_matrix_rejected(self, small_params, geometry):
        # (n_rx, n_tx) has the right number of gains but the wrong layout
        cube = simulate_frame(single_target_scene(), small_params, geometry, 0)
        with pytest.raises(InvalidParameterError, match=r"\(16, 9\)"):
            inject_channel_errors(cube, np.ones((small_params.n_rx, small_params.n_tx)))


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
    # levels a complex64 cube cannot carry: the noise scale overflowed at 1e308
    # dB and divided by zero at -1e308 dB; -800 dB noise and a 1e39 target were
    # synthesized, and became inf in a cube file
    {"snr_db": 1e308},
    {"snr_db": -1e308},
    {"snr_db": -800.0},
    {"targets": [{"range_m": 20.0, "amplitude": 1e39}]},
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

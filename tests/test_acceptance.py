"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import time

import numpy as np

import tdmradar as tr
from tdmradar.demos import (
    demo_compensation,
    demo_resolution_angle,
    demo_resolution_range,
    demo_unfold,
)
from tdmradar.pipeline import _match_across_frames, unfold_detection


def _report(number, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, text


def _run_demo(demo):
    start = time.perf_counter()
    result = demo()
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_criterion_1_crt_worked_example():
    result, elapsed = _run_demo(demo_unfold)
    for line in result.lines:
        print("   ", line)
    _report(1, result.passed and elapsed < 1.0,
            f"staggered unfolding worked example ({elapsed:.2f} s < 1 s)")


def test_criterion_2_phase_compensation():
    result, elapsed = _run_demo(demo_compensation)
    for line in result.lines:
        print("   ", line)
    _report(2, result.passed and elapsed < 5.0,
            f"migration compensation experiment ({elapsed:.2f} s < 5 s)")


def test_criterion_3_angular_resolution():
    result, _ = _run_demo(demo_resolution_angle)
    for line in result.lines:
        print("   ", line)
    _report(3, result.passed, "1.6 deg reflector pair resolved with >= 3 dB saddle")


def test_criterion_4_range_resolution():
    result, _ = _run_demo(demo_resolution_range)
    for line in result.lines:
        print("   ", line)
    _report(4, result.passed, "0.6 m reflector pair resolved in range at 250 MHz")


# ---------------------------------------------------------------------------
# criterion 5: velocity unfolding end to end
# ---------------------------------------------------------------------------

_MC_PARAMS = tr.RadarParams(77e9, 250e6, 20e-6, 64, 32, 9, 16, 21.0e-6, 27.2e-6)
_MC_CFAR = tr.CfarConfig(training=(6, 4), guard=(3, 2), pfa=1e-3)


def _unfold_trial(v_true, range_m, azimuth_deg, seed, snr_db, geometry, varray):
    scene = tr.Scene(targets=(tr.PointTarget(range_m, v_true, azimuth_deg),),
                     snr_db=snr_db, rng_seed=seed)
    frame_a, frame_b = tr.simulate_frame_pair(scene, _MC_PARAMS, geometry)
    rds, dets = {}, {}
    for tag, cube in (("a", frame_a), ("b", frame_b)):
        rd = tr.range_doppler_map(tr.tdm_demux(cube, cube.plan))
        rds[tag] = rd
        dets[tag] = tr.cfar_ca2d(tr.noncoherent_integrate(rd), _MC_CFAR,
                                 velocity_axis=rd.velocity_axis)
    if not dets["a"]:
        return None
    det_a = max(dets["a"], key=lambda d: d.power_db)
    pair = _match_across_frames([det_a], dets["b"])[0]
    det_b = dets["b"][pair[1]] if pair[1] is not None else None
    velocity, _ = unfold_detection(det_a, det_b, rds["a"], rds["b"], varray, _MC_PARAMS)
    return velocity


def test_criterion_5_velocity_unfolding(geometry, varray):
    vmax_a = tr.folded_vmax(_MC_PARAMS, 0)
    vmax_b = tr.folded_vmax(_MC_PARAMS, 1)
    order = _MC_PARAMS.n_tx // 2
    span = 0.9 * (2 * order + 1) * min(vmax_a, vmax_b)
    half_bin = max(vmax_a, vmax_b) / _MC_PARAMS.chirps_per_tx_per_frame

    rng = np.random.default_rng(2024)
    hits = total = undetected = 0
    errors_20db = []
    for trial in range(500):
        v_true = rng.uniform(-span, span)
        velocity = _unfold_trial(v_true, rng.uniform(4.0, 17.0),
                                 rng.uniform(-30.0, 30.0), trial, 20.0,
                                 geometry, varray)
        if velocity is None:
            undetected += 1
            continue
        total += 1
        errors_20db.append(abs(velocity - v_true))
        hits += abs(velocity - v_true) <= half_bin + 1e-9
    rate = hits / total
    print(f"    20 dB: {hits}/{total} within half a Doppler bin "
          f"({rate * 100:.1f} %), {undetected} undetected, "
          f"mean |error| {np.mean(errors_20db):.4f} m/s")

    # Low-SNR behaviour of the overlap method (reported, no threshold):
    # score with every overlapped pair, with a single pair (the minimal
    # phase comparison), and with a single pair helped by the CRT prior.
    from dataclasses import replace

    from tdmradar.angle import assemble_snapshot
    from tdmradar.unfold import crt_candidates, crt_intersect, resolve_velocity

    varray_single = replace(varray, overlapped_pairs=varray.overlapped_pairs[:1])
    vmax_a = tr.folded_vmax(_MC_PARAMS, 0)
    vmax_b = tr.folded_vmax(_MC_PARAMS, 1)
    wrong = {"single-pair overlap-only": 0, "single-pair + CRT prior": 0,
             "all-pairs overlap-only": 0}
    low_total = 0
    for trial in range(80):
        v_true = rng.uniform(-span, span)
        scene = tr.Scene(targets=(tr.PointTarget(rng.uniform(4.0, 17.0), v_true,
                                                 rng.uniform(-30.0, 30.0)),),
                         snr_db=0.0, rng_seed=10_000 + trial)
        frame_a, frame_b = tr.simulate_frame_pair(scene, _MC_PARAMS, geometry)
        rds, dets = {}, {}
        for tag, cube in (("a", frame_a), ("b", frame_b)):
            rd = tr.range_doppler_map(tr.tdm_demux(cube, cube.plan))
            rds[tag] = rd
            dets[tag] = tr.cfar_ca2d(tr.noncoherent_integrate(rd), _MC_CFAR,
                                     velocity_axis=rd.velocity_axis)
        if not dets["a"]:
            continue
        low_total += 1
        det_a = max(dets["a"], key=lambda d: d.power_db)
        pair = _match_across_frames([det_a], dets["b"])[0]
        det_b = dets["b"][pair[1]] if pair[1] is not None else None
        set_a = crt_candidates(det_a.folded_velocity_mps, vmax_a, _MC_PARAMS.n_tx)
        snapshot = assemble_snapshot(rds["a"], (det_a.range_bin, det_a.doppler_bin),
                                     varray)
        plan, lam = rds["a"].plan, _MC_PARAMS.wavelength_m
        candidates = set_a.candidates
        if det_b is not None:
            set_b = crt_candidates(det_b.folded_velocity_mps, vmax_b, _MC_PARAMS.n_tx)
            tol = max(rds["a"].velocity_bin_mps, rds["b"].velocity_bin_mps) / 2
            narrowed = crt_intersect(set_a, set_b, tol)
            candidates = narrowed if narrowed.size else np.union1d(
                set_a.candidates, set_b.candidates)
        picks = {
            "single-pair overlap-only": resolve_velocity(
                snapshot, set_a.candidates, varray_single, plan, lam),
            "single-pair + CRT prior": resolve_velocity(
                snapshot, candidates, varray_single, plan, lam),
            "all-pairs overlap-only": resolve_velocity(
                snapshot, set_a.candidates, varray, plan, lam),
        }
        for key, value in picks.items():
            wrong[key] += abs(value - v_true) > half_bin + 1e-9
    print(f"    0 dB wrong-alias picks over {low_total} scenes: "
          + ", ".join(f"{k} {v}" for k, v in wrong.items()))
    print("    (the bare single-pair phase comparison degrades at low SNR; "
          "the CRT prior or averaging over all 58 overlapped pairs restores it)")

    _report(5, rate >= 0.99,
            f"unfolded velocity within half a Doppler bin in {rate * 100:.1f} % >= 99 %")


# ---------------------------------------------------------------------------
# criterion 6: round-trip localization and CFAR calibration
# ---------------------------------------------------------------------------

def _random_separated_scene(rng, params, k):
    vmax_a = tr.folded_vmax(params, 0)
    vmax_b = tr.folded_vmax(params, 1)
    bins_a = params.chirps_per_tx_per_frame
    span = 0.9 * (params.n_tx // 2 * 2 + 1) * min(vmax_a, vmax_b)
    bin_m = tr.range_resolution(params)

    def doppler_bin(v, vmax):
        folded = tr.fold_velocity(v, vmax)
        return int(round(folded / (2 * vmax / bins_a))) % bins_a

    targets = []
    guard = 0
    while len(targets) < k and guard < 500:
        guard += 1
        cand = tr.PointTarget(rng.uniform(5.0, 34.0), rng.uniform(-span, span),
                              rng.uniform(-30.0, 30.0))
        ok = True
        for other in targets:
            dr = abs(round(cand.range_m / bin_m) - round(other.range_m / bin_m))
            sep_d = []
            for frame, vmax in ((0, vmax_a), (1, vmax_b)):
                da = abs(doppler_bin(cand.velocity_mps, vmax)
                         - doppler_bin(other.velocity_mps, vmax))
                sep_d.append(min(da, bins_a - da) >= 2)
            if dr < 2 and not all(sep_d):
                ok = False
                break
        if ok:
            targets.append(cand)
    return tr.Scene(targets=tuple(targets), snr_db=20.0,
                    rng_seed=int(rng.integers(0, 2 ** 31)))


def test_criterion_6_round_trip_localization(geometry):
    params = tr.RadarParams(77e9, 250e6, 20e-6, 128, 32, 9, 16, 21.0e-6, 27.2e-6)
    rng = np.random.default_rng(31337)
    checked = 0
    worst_range = worst_az = 0.0
    for scene_idx in range(12):
        scene = _random_separated_scene(rng, params, k=int(rng.integers(1, 6)))
        frame_a, frame_b = tr.simulate_frame_pair(scene, params, geometry)
        result = tr.run_pipeline(frame_a, frame_b, params, geometry, cfar=_MC_CFAR)
        for target in scene.targets:
            matches = [d for d in result.detections
                       if abs(d.range_m - target.range_m) <= 0.6
                       and abs(d.azimuth_deg - target.azimuth_deg) <= 1.5]
            assert matches, (f"target {target} not detected in scene {scene_idx} "
                             f"({len(result.detections)} detections)")
            best = min(matches, key=lambda d: abs(d.range_m - target.range_m))
            range_err = abs(best.range_m - target.range_m)
            az_err = abs(best.azimuth_deg - target.azimuth_deg)
            worst_range = max(worst_range, range_err)
            worst_az = max(worst_az, az_err)
            assert range_err <= 0.3, f"range error {range_err:.3f} m for {target}"
            assert az_err <= 0.6, f"azimuth error {az_err:.3f} deg for {target}"
            checked += 1
    print(f"    {checked} targets localized: worst range error {worst_range:.3f} m, "
          f"worst azimuth error {worst_az:.3f} deg")

    cfg = tr.CfarConfig(training=(8, 8), guard=(2, 2), pfa=1e-3)
    noise_rng = np.random.default_rng(5150)
    cells = alarms = 0
    while cells < 1_000_000:
        power = noise_rng.standard_exponential((512, 512))
        alarms += len(tr.cfar_ca2d(power, cfg))
        cells += power.size
    rate = alarms / cells
    print(f"    CFAR false-alarm rate {rate:.2e} over {cells} cells "
          f"(configured 1e-3)")
    _report(6, 1e-3 / 3 <= rate <= 3e-3,
            f"all targets localized and false-alarm rate within 3x of pfa")


# ---------------------------------------------------------------------------
# criterion 7: numerical invariants
# ---------------------------------------------------------------------------

def test_criterion_7_numerical_invariants(geometry, varray):
    params = tr.RadarParams(77e9, 250e6, 20e-6, 128, 32, 9, 16, 21.0e-6, 27.2e-6)
    plan = tr.build_frame_plan(params, 0)
    rng = np.random.default_rng(404)
    shape = (params.n_rx, plan.chirp_count_total, params.adc_samples_per_chirp)
    noise = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    cube = tr.DataCube(samples=noise, plan=plan, params=params)
    sub = tr.tdm_demux(cube, plan)

    rd = tr.range_doppler_map(sub, window_fast="rect", window_slow="rect")
    gain = params.adc_samples_per_chirp * params.chirps_per_tx_per_frame
    parseval = abs(np.sum(np.abs(rd.values) ** 2)
                   - gain * np.sum(np.abs(sub.values) ** 2))
    parseval_ok = parseval <= 1e-9 * gain * np.sum(np.abs(sub.values) ** 2)

    other = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    cube2 = tr.DataCube(samples=other, plan=plan, params=params)
    a, b = 1.3 - 0.4j, -0.7 + 2.1j
    mixed = tr.DataCube(samples=a * noise + b * other, plan=plan, params=params)
    lhs = tr.range_doppler_map(tr.tdm_demux(mixed, plan)).values
    rhs = (a * tr.range_doppler_map(tr.tdm_demux(cube, plan)).values
           + b * tr.range_doppler_map(tr.tdm_demux(cube2, plan)).values)
    linear_ok = np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()

    tx, rx, pos = varray.source_table()
    snapshot = tr.VirtualSnapshot(
        values=rng.normal(size=tx.size) + 1j * rng.normal(size=tx.size),
        source_tx=tx, source_rx=rx, source_position=pos, cell=(0, 0), frame_index=0)
    forward = tr.compensate_tdm_phase(snapshot, 13.7, plan, params.wavelength_m)
    back = tr.compensate_tdm_phase(forward, -13.7, plan, params.wavelength_m)
    comp_ok = np.abs(back.values - snapshot.values).max() <= 1e-12 * np.abs(snapshot.values).max()

    gains = (rng.uniform(0.5, 2.0, (9, 16))
             * np.exp(1j * rng.uniform(-np.pi, np.pi, (9, 16))))
    ref_scene = tr.Scene(targets=(tr.PointTarget(5.0, 0.0, 0.0),))
    ref = tr.simulate_frame(ref_scene, params, geometry, 0)
    cal = tr.estimate_calibration(tr.inject_channel_errors(ref, gains),
                                  ref.plan, 5.0, 0.0, params, geometry)
    ratio = cal.gains / gains
    cal_ok = np.abs(ratio / ratio[0, 0] - 1.0).max() <= 1e-6

    t1 = tr.PointTarget(10.0, 3.0, -9.0)
    t2 = tr.PointTarget(22.0, -5.0, 14.0, amplitude=0.4)
    s_both = tr.simulate_frame(tr.Scene(targets=(t1, t2)), params, geometry, 0)
    s_1 = tr.simulate_frame(tr.Scene(targets=(t1,)), params, geometry, 0)
    s_2 = tr.simulate_frame(tr.Scene(targets=(t2,)), params, geometry, 0)
    super_ok = np.abs(s_both.samples - s_1.samples - s_2.samples).max() <= 1e-10

    noisy = tr.Scene(targets=(t1,), snr_db=15.0, rng_seed=77)
    d1 = tr.simulate_frame_pair(noisy, params, geometry)
    d2 = tr.simulate_frame_pair(noisy, params, geometry)
    det_ok = (np.array_equal(d1[0].samples, d2[0].samples)
              and np.array_equal(d1[1].samples, d2[1].samples))

    for name, ok in (("parseval 1e-9", parseval_ok), ("fft linearity 1e-12", linear_ok),
                     ("compensate identity 1e-12", comp_ok),
                     ("calibration round trip 1e-6", cal_ok),
                     ("simulator superposition", super_ok),
                     ("simulator determinism", det_ok)):
        print(f"    {name}: {'ok' if ok else 'FAIL'}")
    _report(7, all([parseval_ok, linear_ok, comp_ok, cal_ok, super_ok, det_ok]),
            "numerical invariants suite")


# ---------------------------------------------------------------------------
# criterion 8: performance envelope
# ---------------------------------------------------------------------------

def test_criterion_8_performance(geometry):
    params = tr.default_params()  # 9 TX, 16 RX, 128 chirps/TX, 512 samples
    scene = tr.Scene(targets=(
        tr.PointTarget(30.0, 6.0, 10.0),
        tr.PointTarget(75.0, -12.0, -20.0, amplitude=0.7),
        tr.PointTarget(120.0, 0.0, 3.0, amplitude=1.5),
    ), snr_db=20.0, rng_seed=99)
    frame_a, frame_b = tr.simulate_frame_pair(scene, params, geometry)

    start = time.perf_counter()
    single = tr.run_pipeline(frame_a, frame_b, params, geometry, workers=1)
    elapsed = time.perf_counter() - start
    print(f"    single-threaded process: {elapsed:.2f} s "
          f"({len(single.detections)} detections)")

    parallel = tr.run_pipeline(frame_a, frame_b, params, geometry, workers=4)
    identical = (np.array_equal(single.map_a.power_db, parallel.map_a.power_db)
                 and np.array_equal(single.map_b.power_db, parallel.map_b.power_db))
    print(f"    parallel maps bit-identical: {identical}")
    _report(8, elapsed < 5.0 and identical,
            f"frame pair processed in {elapsed:.2f} s < 5 s, parallel output bit-identical")

import contextlib
import functools
import io
import json
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tdmradar import (
    CalibrationVector,
    ArrayGeometry,
    InvalidParameterError,
    RadarParams,
    Scene,
    default_geometry,
    default_params,
    run_pipeline,
    simulate_frame,
)
from tdmradar import cli
from tdmradar.fileio import (
    _CUBE_HEADER,
    _MAP_HEADER,
    CubeFormatError,
    MapFormatError,
    read_cube,
    read_map,
    write_calibration_json,
    write_cube,
    write_map,
)

from conftest import SUBPROCESS_ENV, line_array

ROOT = Path(__file__).resolve().parents[1]

# The suite's warning policy (pyproject.toml) applies inside CLI subprocesses too.
CLI = [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
       "-W", "error::FutureWarning", "-W", "error::ResourceWarning", "-m", "tdmradar.cli"]


def run_cli(*args, check=False):
    """``tdmradar *args`` in-process through ``cli.main``, its output and exit
    code returned as a subprocess's; an uncaught exception fails the test."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    proc = subprocess.CompletedProcess(list(args), code, stdout.getvalue(), stderr.getvalue())
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def run_cli_subprocess(*args):
    proc = subprocess.run(CLI + list(args), env=SUBPROCESS_ENV, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def test_cli_import_leaves_scipy_signal_and_stats_unloaded():
    # scipy.signal loads stats, optimize, linalg, sparse and more with it,
    # about half a second of every CLI start.
    proc = subprocess.run([sys.executable, "-c", "import sys, tdmradar, tdmradar.cli; print("
                           "[m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules])"],
                          env=SUBPROCESS_ENV, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_scipy_ndimage_unloaded():
    # the CFAR local maximum and the Cartesian resample are numpy only
    proc = subprocess.run([sys.executable, "-c", "import sys, tdmradar.cli; "
                           "print('scipy.ndimage' in sys.modules)"],
                          env=SUBPROCESS_ENV, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    params = dict(
        carrier_frequency_hz=77e9, bandwidth_hz=250e6, chirp_duration_s=20e-6,
        adc_samples_per_chirp=128, chirps_per_tx_per_frame=32, n_tx=9, n_rx=16,
        pri_frame_a_s=21.0e-6, pri_frame_b_s=27.2e-6)
    (path / "params.json").write_text(json.dumps(params))
    (path / "geometry.json").write_text(json.dumps(default_geometry().to_dict()))
    scene = {"targets": [{"range_m": 20.0, "velocity_mps": 6.0,
                          "azimuth_deg": 10.0, "amplitude": 1.0}],
             "snr_db": 25.0, "rng_seed": 3}
    (path / "scene.json").write_text(json.dumps(scene))
    cal_scene = {"targets": [{"range_m": 5.0, "velocity_mps": 0.0,
                              "azimuth_deg": 0.0, "amplitude": 1.0}],
                 "snr_db": None, "rng_seed": 0}
    (path / "cal_scene.json").write_text(json.dumps(cal_scene))
    # The frame pair f0.rdc/f1.rdc and its maps, through the in-process CLI,
    # so that every test of this module also runs alone.
    config = ["--params", str(path / "params.json"), "--geometry", str(path / "geometry.json")]
    assert cli.main(["simulate", "--scene", str(path / "scene.json"), *config, "--seed", "3",
                     "--out-a", str(path / "f0.rdc"), "--out-b", str(path / "f1.rdc")]) == 0
    assert cli.main(["process", "--in-a", str(path / "f0.rdc"), "--in-b", str(path / "f1.rdc"),
                     *config, "--out-map", str(path / "map.ram"),
                     "--out-det", str(path / "det.json")]) == 0
    return path


def test_simulate_then_process(workdir, tmp_path):
    run_cli_subprocess("simulate", "--scene", str(workdir / "scene.json"),
            "--params", str(workdir / "params.json"),
            "--geometry", str(workdir / "geometry.json"),
            "--seed", "3",
            "--out-a", str(tmp_path / "f0.rdc"), "--out-b", str(tmp_path / "f1.rdc"))
    proc = run_cli_subprocess("process", "--in-a", str(tmp_path / "f0.rdc"),
                              "--in-b", str(tmp_path / "f1.rdc"),
                              "--params", str(workdir / "params.json"),
                              "--geometry", str(workdir / "geometry.json"),
                              "--out-map", str(tmp_path / "map.ram"),
                              "--out-det", str(tmp_path / "det.json"))
    # a CLI subprocess writes the files the in-process CLI wrote
    for name in ("map.ram", "map_b.ram", "det.json"):
        assert (tmp_path / name).read_bytes() == (workdir / name).read_bytes()
    dets = json.loads((tmp_path / "det.json").read_text())["detections"]
    assert len(dets) >= 1
    best = max(dets, key=lambda d: d["power_db"])
    assert abs(best["range_m"] - 20.0) <= 0.3
    assert abs(best["velocity_mps"] - 6.0) <= 0.2
    assert abs(best["azimuth_deg"] - 10.0) <= 0.6
    assert "warning" not in proc.stderr


def test_subprocess_composition_matches_in_process(workdir):
    # the CLI pipeline over files must equal run_pipeline on the same files
    params = RadarParams.from_json(workdir / "params.json")
    geometry = default_geometry()
    cube_a = read_cube(workdir / "f0.rdc", params, geometry)
    cube_b = read_cube(workdir / "f1.rdc", params, geometry)
    result = run_pipeline(cube_a, cube_b, params, geometry)
    write_map(result.map_a, workdir / "inproc.ram")
    assert (workdir / "inproc.ram").read_bytes() == (workdir / "map.ram").read_bytes()


def test_simulate_deterministic(workdir):
    run_cli("simulate", "--scene", str(workdir / "scene.json"),
            "--params", str(workdir / "params.json"),
            "--geometry", str(workdir / "geometry.json"), "--seed", "3",
            "--out-a", str(workdir / "g0.rdc"), "--out-b", str(workdir / "g1.rdc"),
            check=True)
    assert (workdir / "g0.rdc").read_bytes() == (workdir / "f0.rdc").read_bytes()
    assert (workdir / "g1.rdc").read_bytes() == (workdir / "f1.rdc").read_bytes()


def test_simulate_writes_the_library_frames_at_default_params(tmp_path):
    # CLI simulate synthesizes each cube straight into its file; the bytes are
    # write_cube's of simulate_frame's frame, at the full-size waveform
    configs = ROOT / "configs"
    run_cli("simulate", "--scene", str(configs / "scene_demo.json"), "--seed", "5",
            "--params", str(configs / "params.json"),
            "--geometry", str(configs / "geometry.json"),
            "--out-a", str(tmp_path / "a.rdc"), "--out-b", str(tmp_path / "b.rdc"), check=True)
    params = RadarParams.from_json(configs / "params.json")
    geometry = ArrayGeometry.from_json(configs / "geometry.json")
    demo = Scene.from_json(configs / "scene_demo.json")
    scene = Scene(targets=demo.targets, snr_db=demo.snr_db, rng_seed=5)
    for name, frame, start in (("a", 0, 0.0), ("b", 1, params.frame_duration_s(0))):
        write_cube(simulate_frame(scene, params, geometry, frame, start), tmp_path / "ref.rdc")
        assert (tmp_path / f"{name}.rdc").read_bytes() == (tmp_path / "ref.rdc").read_bytes()


def test_simulate_keeps_one_worker_thread(workdir, tmp_path):
    # both cubes are written on the frame pair's threads, the one worker kept
    threads = threading.active_count()
    config = ["--params", str(workdir / "params.json"),
              "--geometry", str(workdir / "geometry.json")]
    for _ in range(3):
        assert cli.main(["simulate", "--scene", str(workdir / "scene.json"), *config,
                         "--seed", "3", "--out-a", str(tmp_path / "a.rdc"),
                         "--out-b", str(tmp_path / "b.rdc")]) == 0
    assert threading.active_count() <= threads + 1
    assert (tmp_path / "a.rdc").read_bytes() == (workdir / "f0.rdc").read_bytes()
    assert (tmp_path / "b.rdc").read_bytes() == (workdir / "f1.rdc").read_bytes()


def test_digest_mismatch_exit_2(workdir, tmp_path):
    # Same dimensions and PRIs, other carrier: velocities would be scaled wrongly.
    params = json.loads((workdir / "params.json").read_text())
    params["carrier_frequency_hz"] = 70e9
    other = tmp_path / "params2.json"
    other.write_text(json.dumps(params))
    config = ["--params", str(other), "--geometry", str(workdir / "geometry.json")]
    proc = run_cli("process", "--in-a", str(workdir / "f0.rdc"),
                   "--in-b", str(workdir / "f1.rdc"), *config,
                   "--out-map", str(tmp_path / "m.ram"),
                   "--out-det", str(tmp_path / "d.json"))
    _check_data_error(proc, tmp_path / "m.ram")
    assert "digest mismatch" in proc.stderr
    assert not (tmp_path / "m_b.ram").exists() and not (tmp_path / "d.json").exists()
    proc = run_cli("calibrate", "--in", str(workdir / "f0.rdc"), *config,
                   "--range", "5.0", "--azimuth", "0.0", "--out", str(tmp_path / "cal.json"))
    _check_data_error(proc, tmp_path / "cal.json")
    assert "digest mismatch" in proc.stderr


def test_calibrate_command(workdir):
    run_cli("simulate", "--scene", str(workdir / "cal_scene.json"),
            "--params", str(workdir / "params.json"),
            "--geometry", str(workdir / "geometry.json"),
            "--out-a", str(workdir / "cal0.rdc"), "--out-b", str(workdir / "cal1.rdc"),
            check=True)
    run_cli("calibrate", "--in", str(workdir / "cal0.rdc"),
            "--params", str(workdir / "params.json"),
            "--geometry", str(workdir / "geometry.json"),
            "--range", "5.0", "--azimuth", "0.0",
            "--out", str(workdir / "cal.json"), check=True)
    cal = json.loads((workdir / "cal.json").read_text())
    gains = np.array([complex(re, im) for re, im in cal["gains"]])
    np.testing.assert_allclose(gains, 1.0 + 0j, atol=1e-9)


@pytest.mark.parametrize("flag, value", [("--range", "nan"), ("--range", "inf"),
                                         ("--range", "1e400"), ("--azimuth", "nan"),
                                         ("--azimuth", "90")])
def test_calibrate_bad_truth_exit_2(workdir, tmp_path, flag, value):
    truth = {"--range": "5.0", "--azimuth": "0.0", flag: value}
    proc = run_cli("calibrate", "--in", str(workdir / "f0.rdc"),
                   "--params", str(workdir / "params.json"),
                   "--geometry", str(workdir / "geometry.json"),
                   *(item for pair in truth.items() for item in pair),
                   "--out", str(tmp_path / "cal.json"))
    _check_data_error(proc, tmp_path / "cal.json")
    assert "reference" in proc.stderr


def test_export_pgm(workdir):
    run_cli("export-pgm", "--in", str(workdir / "map.ram"),
            "--out", str(workdir / "map.pgm"), check=True)
    blob = (workdir / "map.pgm").read_bytes()
    assert blob.startswith(b"P5\n")
    rmap = read_map(workdir / "map.ram")
    header_end = blob.index(b"65535\n") + 6
    image = np.frombuffer(blob[header_end:], dtype=">u2").reshape(rmap.power_db.shape)
    assert (np.unravel_index(np.argmax(image), image.shape)
            == np.unravel_index(np.argmax(rmap.power_db), rmap.power_db.shape))


def test_demo_unfold_exit_code(workdir):
    proc = run_cli("demo", "unfold")
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
    assert "6.0 m/s" in proc.stdout


def test_usage_error_exit_1():
    proc = run_cli("process", "--no-such-flag")
    assert proc.returncode == 1


def test_simulate_one_output_for_both_frames_exit_1(workdir, tmp_path):
    # the two frames are written at the same time, so one file for both is
    # refused before anything is made; "./" spells the same path differently
    proc = run_cli("simulate", "--scene", str(workdir / "scene.json"),
                   "--params", str(workdir / "params.json"),
                   "--geometry", str(workdir / "geometry.json"),
                   "--out-a", str(tmp_path / "f.rdc"), "--out-b", f"{tmp_path}/./f.rdc")
    assert proc.returncode == 1
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "--out-a and --out-b" in proc.stderr
    assert not (tmp_path / "f.rdc").exists()


def test_simulate_hard_links_of_one_file_exit_1(workdir, tmp_path):
    # two names of one file would have both frame threads rewrite one inode
    (tmp_path / "x.rdc").write_bytes(b"old")
    os.link(tmp_path / "x.rdc", tmp_path / "y.rdc")
    proc = run_cli("simulate", "--scene", str(workdir / "scene.json"),
                   "--params", str(workdir / "params.json"),
                   "--geometry", str(workdir / "geometry.json"),
                   "--out-a", str(tmp_path / "x.rdc"), "--out-b", str(tmp_path / "y.rdc"))
    _check_clash(proc, ("--out-a", "--out-b"), {tmp_path / "x.rdc": b"old"})


@pytest.mark.parametrize("flag", ["--out-a", "--out-b"])
@pytest.mark.parametrize("kind", ["fifo", "device"])
def test_simulate_into_a_fifo_or_device_exit_2(workdir, tmp_path, kind, flag):
    # a cube is staged in its output file, so such an output is refused
    # before either frame is made; a subprocess, so a regression cannot hang
    # the suite on the FIFO
    odd = str(tmp_path / "odd.rdc") if kind == "fifo" else os.devnull
    if kind == "fifo":
        os.mkfifo(odd)
    other = "--out-b" if flag == "--out-a" else "--out-a"
    proc = subprocess.run(
        CLI + ["simulate", "--scene", str(workdir / "scene.json"),
               "--params", str(workdir / "params.json"),
               "--geometry", str(workdir / "geometry.json"),
               flag, odd, other, str(tmp_path / "other.rdc")],
        env=SUBPROCESS_ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("tdmradar: error:")
    assert len(proc.stderr.strip().splitlines()) == 1
    assert f"{odd} is not a regular file" in proc.stderr
    assert not (tmp_path / "other.rdc").exists()


def _check_clash(proc, flags, files):
    """Check a CLI run ended in one usage-error line naming both clashing
    flags and left every given file as it was."""
    assert proc.returncode == 1
    assert len(proc.stderr.strip().splitlines()) == 1
    assert f"{flags[0]} and {flags[1]} both name" in proc.stderr
    for path, blob in files.items():
        assert path.read_bytes() == blob


def test_process_output_clash_exit_1(workdir, tmp_path):
    # the frame-b map lands at --out-map's _b sibling, so --out-det may not
    # name it; this used to write the detection JSON over the frame-b map
    files = {tmp_path / name: name.encode() for name in ("m.ram", "m_b.ram")}
    for path, blob in files.items():
        path.write_bytes(blob)
    proc = run_cli("process", "--in-a", str(workdir / "f0.rdc"), "--in-b", str(workdir / "f1.rdc"),
                   "--params", str(workdir / "params.json"),
                   "--geometry", str(workdir / "geometry.json"),
                   "--out-map", str(tmp_path / "m.ram"), "--out-det", str(tmp_path / "m_b.ram"))
    _check_clash(proc, ("--out-det", "--out-map (frame b)"), files)


def test_export_pgm_over_its_input_exit_1(workdir, tmp_path):
    (tmp_path / "map.ram").write_bytes((workdir / "map.ram").read_bytes())
    files = {tmp_path / "map.ram": (workdir / "map.ram").read_bytes()}
    proc = run_cli("export-pgm", "--in", str(tmp_path / "map.ram"),
                   "--out", f"{tmp_path}/./map.ram")
    _check_clash(proc, ("--out", "--in"), files)


def test_calibrate_over_its_input_exit_1(workdir, tmp_path):
    (tmp_path / "c0.rdc").write_bytes((workdir / "f0.rdc").read_bytes())
    files = {tmp_path / "c0.rdc": (workdir / "f0.rdc").read_bytes()}
    proc = run_cli("calibrate", "--in", str(tmp_path / "c0.rdc"),
                   "--params", str(workdir / "params.json"),
                   "--geometry", str(workdir / "geometry.json"),
                   "--range", "5.0", "--azimuth", "0.0", "--out", str(tmp_path / "c0.rdc"))
    _check_clash(proc, ("--out", "--in"), files)


def test_simulate_over_its_params_exit_1(workdir, tmp_path):
    params = tmp_path / "params.json"
    params.write_bytes((workdir / "params.json").read_bytes())
    files = {params: params.read_bytes()}
    proc = run_cli("simulate", "--scene", str(workdir / "scene.json"), "--params", str(params),
                   "--geometry", str(workdir / "geometry.json"),
                   "--out-a", str(params), "--out-b", str(tmp_path / "b.rdc"))
    _check_clash(proc, ("--out-a", "--params"), files)
    assert not (tmp_path / "b.rdc").exists()


def test_missing_file_exit_2(workdir, tmp_path):
    proc = run_cli("process", "--in-a", str(tmp_path / "nope.rdc"),
                   "--in-b", str(tmp_path / "nope2.rdc"),
                   "--params", str(workdir / "params.json"),
                   "--geometry", str(workdir / "geometry.json"),
                   "--out-map", str(tmp_path / "m.ram"),
                   "--out-det", str(tmp_path / "d.json"))
    assert proc.returncode == 2


def test_corrupt_magic_exit_2(workdir, tmp_path):
    bad = tmp_path / "bad.rdc"
    data = bytearray((workdir / "f0.rdc").read_bytes())
    data[:4] = b"ZZZZ"
    bad.write_bytes(bytes(data))
    proc = run_cli("process", "--in-a", str(bad), "--in-b", str(workdir / "f1.rdc"),
                   "--params", str(workdir / "params.json"),
                   "--geometry", str(workdir / "geometry.json"),
                   "--out-map", str(tmp_path / "m.ram"),
                   "--out-det", str(tmp_path / "d.json"))
    assert proc.returncode == 2
    assert "magic" in proc.stderr


@pytest.mark.parametrize("flag, value", [("--pfa", "0")])
def test_invalid_process_option_exit_2(workdir, tmp_path, flag, value):
    proc = run_cli("process", "--in-a", str(workdir / "f0.rdc"),
                   "--in-b", str(workdir / "f1.rdc"),
                   "--params", str(workdir / "params.json"),
                   "--geometry", str(workdir / "geometry.json"),
                   "--out-map", str(tmp_path / "m.ram"),
                   "--out-det", str(tmp_path / "d.json"), flag, value)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "m.ram").exists()


@pytest.mark.parametrize("flag", ["--pfa", "--cal", "--out-map"])
def test_bad_process_option_reads_no_cube(workdir, tmp_path, monkeypatch, capsys, flag):
    # options are checked before either cube is read: at default params the
    # two cubes are about 150 MB; a map is written as a new regular file, so
    # a device is refused
    (tmp_path / "cal.json").write_text('{"gains": [[1.0, 0.0]')  # malformed JSON
    value = {"--pfa": "0", "--cal": str(tmp_path / "cal.json"), "--out-map": os.devnull}[flag]
    reads = []
    real_read_cube = cli.fileio.read_cube

    def spy(*args):
        reads.append(args)
        return real_read_cube(*args)

    monkeypatch.setattr("tdmradar.fileio.read_cube", spy)
    assert cli.main(["process", "--in-a", str(workdir / "f0.rdc"),
                     "--in-b", str(workdir / "f1.rdc"),
                     "--params", str(workdir / "params.json"),
                     "--geometry", str(workdir / "geometry.json"),
                     "--out-map", str(tmp_path / "m.ram"),
                     "--out-det", str(tmp_path / "d.json"), flag, value]) == 2
    assert capsys.readouterr().err.startswith("tdmradar: error:")
    assert reads == []
    assert not (tmp_path / "m.ram").exists()


def _check_data_error(proc, output):
    """Check a CLI run ended in one clean data-error line and wrote nothing."""
    assert proc.returncode == 2
    assert proc.stderr.startswith("tdmradar: error:")
    assert len(proc.stderr.strip().splitlines()) == 1
    assert not output.exists()
    return proc


def _process_data_error(workdir, tmp_path, in_a, in_b, *extra):
    """Run ``process`` and check it ends in one clean data-error line."""
    proc = run_cli("process", "--in-a", str(in_a), "--in-b", str(in_b),
                   "--params", str(workdir / "params.json"),
                   "--geometry", str(workdir / "geometry.json"),
                   "--out-map", str(tmp_path / "m.ram"),
                   "--out-det", str(tmp_path / "d.json"), *extra)
    return _check_data_error(proc, tmp_path / "m.ram")


def test_non_finite_cube_exit_2(workdir, tmp_path):
    params = RadarParams.from_json(workdir / "params.json")
    cube = read_cube(workdir / "f0.rdc", params, default_geometry())
    cube.samples[2, 5, 9] = np.nan
    write_cube(cube, tmp_path / "nan.rdc")
    proc = _process_data_error(workdir, tmp_path, tmp_path / "nan.rdc", workdir / "f1.rdc")
    assert "non-finite" in proc.stderr


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_frame_b_cube_exit_2(workdir, tmp_path, bad):
    params = RadarParams.from_json(workdir / "params.json")
    cube = read_cube(workdir / "f1.rdc", params, default_geometry())
    cube.samples[4, 3, 1] = bad
    write_cube(cube, tmp_path / "bad.rdc")
    proc = _process_data_error(workdir, tmp_path, workdir / "f0.rdc", tmp_path / "bad.rdc")
    assert "frame 1 has non-finite" in proc.stderr


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_export_pgm_non_finite_map_exit_2(workdir, tmp_path, bad):
    rmap = read_map(workdir / "map.ram")
    rmap.power_db[0, 1] = bad
    write_map(rmap, tmp_path / "bad.ram")
    proc = run_cli("export-pgm", "--in", str(tmp_path / "bad.ram"),
                   "--out", str(tmp_path / "bad.pgm"))
    _check_data_error(proc, tmp_path / "bad.pgm")
    assert "non-finite dB value at offset" in proc.stderr


def test_malformed_calibration_json_exit_2(workdir, tmp_path):
    good = CalibrationVector(np.ones((9, 16), dtype=complex), 5.0, 0.0,
                             default_geometry()).to_dict()
    docs = [{**good, **change} for change in (
        {"gains": good["gains"][:100]}, {"n_tx": 9.0}, {"n_tx": -9, "n_rx": -16},
        {"reference": 5}, {"reference": {"range_m": "far"}},
        {"reference": {"azimuth_deg": float("nan")}})]
    docs += [[1, 2], "x", {k: v for k, v in good.items() if k != "gains"}]
    for doc in docs:
        (tmp_path / "cal.json").write_text(json.dumps(doc))
        proc = _process_data_error(workdir, tmp_path, workdir / "f0.rdc", workdir / "f1.rdc",
                                   "--cal", str(tmp_path / "cal.json"))
        assert "calibration" in proc.stderr



def test_calibration_from_another_geometry_exit_2(workdir, tmp_path):
    # calibrate on the RX-reversed array (the same counts), then process the
    # default array's pair with that calibration
    geometry = default_geometry()
    permuted = ArrayGeometry(geometry.tx_positions, geometry.rx_positions[::-1])
    (tmp_path / "permuted.json").write_text(json.dumps(permuted.to_dict()))
    config = ["--params", str(workdir / "params.json"),
              "--geometry", str(tmp_path / "permuted.json")]
    run_cli("simulate", "--scene", str(workdir / "cal_scene.json"), *config,
            "--out-a", str(tmp_path / "cal0.rdc"), "--out-b", str(tmp_path / "cal1.rdc"),
            check=True)
    run_cli("calibrate", "--in", str(tmp_path / "cal0.rdc"), *config, "--range", "5.0",
            "--azimuth", "0.0", "--out", str(tmp_path / "cal.json"), check=True)
    assert json.loads((tmp_path / "cal.json").read_text())["geometry"] == permuted.to_dict()
    proc = _process_data_error(workdir, tmp_path, workdir / "f0.rdc", workdir / "f1.rdc",
                               "--cal", str(tmp_path / "cal.json"))
    assert "calibration was measured on another array geometry" in proc.stderr
    assert not (tmp_path / "m_b.ram").exists() and not (tmp_path / "d.json").exists()

@pytest.mark.parametrize("shape, scene", [((10, 17), "scene.json"),
                                          ((2, 3), "empty_scene.json")])
def test_calibration_shape_mismatch_exit_2(workdir, tmp_path, shape, scene):
    (workdir / "empty_scene.json").write_text(
        json.dumps({"targets": [], "snr_db": 20.0, "rng_seed": 1}))
    run_cli("simulate", "--scene", str(workdir / scene),
            "--params", str(workdir / "params.json"),
            "--geometry", str(workdir / "geometry.json"),
            "--out-a", str(tmp_path / "a.rdc"), "--out-b", str(tmp_path / "b.rdc"),
            check=True)
    write_calibration_json(CalibrationVector(np.ones(shape, dtype=complex), 5.0, 0.0,
                                             line_array(*shape)),
                           tmp_path / "cal.json")
    proc = _process_data_error(workdir, tmp_path, tmp_path / "a.rdc", tmp_path / "b.rdc",
                               "--cal", str(tmp_path / "cal.json"))
    assert "calibration" in proc.stderr


@pytest.mark.parametrize("gain", [[1, 0, 0], ["a", 0], [np.nan, 0], [np.inf, 0]])
def test_malformed_calibration_gain_exit_2(workdir, tmp_path, gain):
    cal = CalibrationVector(np.ones((9, 16), dtype=complex), 5.0, 0.0, default_geometry()).to_dict()
    cal["gains"][7] = gain
    (tmp_path / "cal.json").write_text(json.dumps(cal))
    proc = _process_data_error(workdir, tmp_path, workdir / "f0.rdc", workdir / "f1.rdc",
                               "--cal", str(tmp_path / "cal.json"))
    assert "calibration gain" in proc.stderr


@pytest.mark.parametrize("gain", [1e300, 1e-38])
def test_calibration_gain_beyond_the_level_limit_exit_2(workdir, tmp_path, gain):
    # the complex64 reciprocals of 1e300 underflow to 0, which would write
    # floor-only maps and put every detection at -90 degrees; those of 1e-38
    # overflow to inf
    cal = CalibrationVector(np.ones((9, 16), dtype=complex), 5.0, 0.0, default_geometry()).to_dict()
    cal["gains"] = [[gain, 0.0]] * len(cal["gains"])
    (tmp_path / "cal.json").write_text(json.dumps(cal))
    proc = _process_data_error(workdir, tmp_path, workdir / "f0.rdc", workdir / "f1.rdc",
                               "--cal", str(tmp_path / "cal.json"))
    assert "calibration gains" in proc.stderr
    assert not (tmp_path / "m_b.ram").exists() and not (tmp_path / "d.json").exists()


@pytest.mark.parametrize("samples", [2**62, 2**42])
def test_oversized_frame_exit_2(workdir, tmp_path, samples):
    # at default params (16 RX x 1152 slots), 2**62 samples a chirp exceed
    # sys.maxsize bytes as complex128 and are refused before any allocation;
    # 2**42 pass that check, and the 2**58-byte float32 staging array, beyond
    # any address space, fails to allocate
    params = {**default_params().to_dict(), "adc_samples_per_chirp": samples}
    (tmp_path / "params.json").write_text(json.dumps(params))
    proc = _simulate_data_error(workdir, tmp_path, tmp_path / "params.json",
                                workdir / "geometry.json")
    assert ("exceeds" if samples == 2**62 else "Unable to allocate") in proc.stderr
    assert not (tmp_path / "b.rdc").exists()


def _field_offsets(header: struct.Struct) -> list:
    """Offset of every field of a packed little-endian header, then its size."""
    codes = re.findall(r"\d*[a-zA-Z]", header.format[1:])
    return [struct.calcsize("<" + "".join(codes[:i])) for i in range(len(codes) + 1)]


def _fuzzed(blob: bytes, header: struct.Struct, u32_fields, rng) -> list:
    """Truncations at every header field boundary and inside the payload,
    plus one copy per u32 field (dimension or frame index) set to 0xFFFFFFFF."""
    offsets = _field_offsets(header)
    cuts = offsets + sorted(rng.integers(header.size + 1, len(blob), 3).tolist())
    variants = [blob[:cut] for cut in cuts]
    for field in u32_fields:
        at = offsets[field]
        variants.append(blob[:at] + b"\xff\xff\xff\xff" + blob[at + 4:])
    return variants


@pytest.mark.parametrize("kind", ["cube", "map"])
def test_fuzzed_file_exit_2(workdir, tmp_path, capsys, kind):
    params = RadarParams.from_json(workdir / "params.json")
    rng = np.random.default_rng(2024)
    if kind == "cube":
        # every field: the magic, the version (2, the format before this one),
        # the frame index (0xFFFFFFFF) and one flipped byte of the digest
        blob, header, dims = (workdir / "f0.rdc").read_bytes(), _CUBE_HEADER, (2,)
        errors = (CubeFormatError, InvalidParameterError)
        read = functools.partial(read_cube, params=params, geometry=default_geometry())
        at = _CUBE_HEADER.size - 1
        extra = [b"RDC0" + blob[4:], blob[:4] + (2).to_bytes(2, "little") + blob[6:],
                 blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1:]]
    else:
        blob, header, dims = (workdir / "map.ram").read_bytes(), _MAP_HEADER, (2, 3)
        errors, read, extra = MapFormatError, read_map, []
    out = tmp_path / "out"
    for variant in _fuzzed(blob, header, dims, rng) + extra:
        bad = tmp_path / "bad"
        bad.write_bytes(variant)
        tracemalloc.start()
        try:
            with pytest.raises(errors):
                read(bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= len(variant) + 65536
        # The CLI in-process: an uncaught exception fails the test.
        if kind == "cube":
            argv = ["process", "--in-a", str(bad), "--in-b", str(workdir / "f1.rdc"),
                    "--params", str(workdir / "params.json"),
                    "--geometry", str(workdir / "geometry.json"),
                    "--out-map", str(out), "--out-det", str(tmp_path / "d.json")]
        else:
            argv = ["export-pgm", "--in", str(bad), "--out", str(out)]
        assert cli.main(argv) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("tdmradar: error:")
        assert len(stderr.strip().splitlines()) == 1
        assert not out.exists()


def _simulate_data_error(workdir, tmp_path, params_path, geometry_path, scene_path=None,
                         *extra):
    """Run ``simulate`` and check it ends in one clean data-error line."""
    proc = run_cli("simulate", "--scene", str(scene_path or workdir / "scene.json"),
                   "--params", str(params_path), "--geometry", str(geometry_path),
                   "--out-a", str(tmp_path / "a.rdc"), "--out-b", str(tmp_path / "b.rdc"),
                   *extra)
    return _check_data_error(proc, tmp_path / "a.rdc")


@pytest.mark.parametrize("key, value", [("n_chirps", 64), ("n_tx", None), ("n_tx", "9")])
def test_malformed_params_json_exit_2(workdir, tmp_path, key, value):
    # an unknown field, a required field left out (value None), a wrong-typed value
    params = json.loads((workdir / "params.json").read_text())
    if value is None:
        del params[key]
    else:
        params[key] = value
    (tmp_path / "params.json").write_text(json.dumps(params))
    proc = _simulate_data_error(workdir, tmp_path, tmp_path / "params.json",
                                workdir / "geometry.json")
    assert key in proc.stderr


@pytest.mark.parametrize("position", [0.5, "a"])
def test_malformed_geometry_json_exit_2(workdir, tmp_path, position):
    geometry = default_geometry().to_dict()
    geometry["rx_positions"][3] = position
    (tmp_path / "geometry.json").write_text(json.dumps(geometry))
    proc = _simulate_data_error(workdir, tmp_path, workdir / "params.json",
                                tmp_path / "geometry.json")
    assert repr(position) in proc.stderr


def test_geometry_repeated_rx_position_exit_2(workdir, tmp_path):
    geometry = default_geometry().to_dict()
    geometry["rx_positions"][1] = geometry["rx_positions"][0]
    (tmp_path / "geometry.json").write_text(json.dumps(geometry))
    proc = _simulate_data_error(workdir, tmp_path, workdir / "params.json",
                                tmp_path / "geometry.json")
    assert "rx_positions" in proc.stderr


def test_geometry_positions_not_a_list_exit_2(workdir, tmp_path):
    geometry = default_geometry().to_dict()
    geometry["tx_positions"] = 5
    (tmp_path / "geometry.json").write_text(json.dumps(geometry))
    proc = _simulate_data_error(workdir, tmp_path, workdir / "params.json",
                                tmp_path / "geometry.json")
    assert "tx_positions" in proc.stderr


@pytest.mark.parametrize("command", ["simulate", "calibrate"])
@pytest.mark.parametrize("n_tx", [2, 10])
def test_geometry_tx_count_mismatch_exit_2(workdir, tmp_path, command, n_tx):
    # the params have 9 TX: a 2-TX geometry used to end in an IndexError
    # traceback, a 10-TX one in cubes made from its first 9 TX positions
    geometry = {**default_geometry().to_dict(), "tx_positions": list(range(0, 4 * n_tx, 4))}
    (tmp_path / "geometry.json").write_text(json.dumps(geometry))
    if command == "simulate":
        proc = _simulate_data_error(workdir, tmp_path, workdir / "params.json",
                                    tmp_path / "geometry.json")
        assert not (tmp_path / "b.rdc").exists()
    else:
        proc = run_cli("calibrate", "--in", str(workdir / "f0.rdc"),
                       "--params", str(workdir / "params.json"),
                       "--geometry", str(tmp_path / "geometry.json"),
                       "--range", "5.0", "--azimuth", "0.0", "--out", str(tmp_path / "cal.json"))
        _check_data_error(proc, tmp_path / "cal.json")
    assert f"geometry of ({n_tx}, 16) elements for a (9, 16) TX x RX radar" in proc.stderr


def test_geometry_without_overlap_exit_2(workdir, tmp_path):
    # 9 TX 16 apart over RX 0..15: 144 slots, none reached twice, so the
    # velocity unfolding has no overlap phases; the cubes are recorded by that array
    geometry = {"tx_positions": list(range(0, 144, 16)), "rx_positions": list(range(16))}
    (tmp_path / "geometry.json").write_text(json.dumps(geometry))
    config = ["--params", str(workdir / "params.json"),
              "--geometry", str(tmp_path / "geometry.json")]
    run_cli("simulate", "--scene", str(workdir / "scene.json"), *config,
            "--out-a", str(tmp_path / "a.rdc"), "--out-b", str(tmp_path / "b.rdc"), check=True)
    proc = run_cli("process", "--in-a", str(tmp_path / "a.rdc"), "--in-b", str(tmp_path / "b.rdc"),
                   *config,
                   "--out-map", str(tmp_path / "m.ram"), "--out-det", str(tmp_path / "d.json"))
    _check_data_error(proc, tmp_path / "m.ram")
    assert "needs overlapped virtual elements" in proc.stderr
    assert not (tmp_path / "m_b.ram").exists() and not (tmp_path / "d.json").exists()


@pytest.mark.parametrize("command", ["process", "calibrate"])
def test_permuted_geometry_exit_2(workdir, tmp_path, command):
    # the cubes were recorded by the default array; its RX positions reversed
    # make another array of the same TX and RX counts
    geometry = default_geometry().to_dict()
    geometry["rx_positions"].reverse()
    (tmp_path / "geometry.json").write_text(json.dumps(geometry))
    config = ["--params", str(workdir / "params.json"),
              "--geometry", str(tmp_path / "geometry.json")]
    if command == "process":
        proc = run_cli("process", "--in-a", str(workdir / "f0.rdc"),
                       "--in-b", str(workdir / "f1.rdc"), *config,
                       "--out-map", str(tmp_path / "m.ram"), "--out-det", str(tmp_path / "d.json"))
        _check_data_error(proc, tmp_path / "m.ram")
        assert not (tmp_path / "m_b.ram").exists() and not (tmp_path / "d.json").exists()
    else:
        proc = run_cli("calibrate", "--in", str(workdir / "f0.rdc"), *config,
                       "--range", "5.0", "--azimuth", "0.0", "--out", str(tmp_path / "cal.json"))
        _check_data_error(proc, tmp_path / "cal.json")
    assert (f"{workdir / 'f0.rdc'} was made under other radar parameters, array geometry "
            "or frame index (digest mismatch)") in proc.stderr


def test_frame_index_rewritten_exit_2(workdir, tmp_path):
    # frame 2 has frame 0's PRI and dimensions and the same parity, so it would
    # pass as frame a of a staggered pair; only the digest tells them apart
    at = _field_offsets(_CUBE_HEADER)[2]
    data = bytearray((workdir / "f0.rdc").read_bytes())
    assert data[at:at + 4] == (0).to_bytes(4, "little")
    data[at:at + 4] = (2).to_bytes(4, "little")
    (tmp_path / "f2.rdc").write_bytes(bytes(data))
    proc = _process_data_error(workdir, tmp_path, tmp_path / "f2.rdc", workdir / "f1.rdc")
    assert "digest mismatch" in proc.stderr
    assert not (tmp_path / "m_b.ram").exists() and not (tmp_path / "d.json").exists()


def test_geometry_unknown_key_exit_2(workdir, tmp_path):
    geometry = {**default_geometry().to_dict(), "spacing": 0.5}
    (tmp_path / "geometry.json").write_text(json.dumps(geometry))
    proc = _simulate_data_error(workdir, tmp_path, workdir / "params.json",
                                tmp_path / "geometry.json")
    assert "spacing" in proc.stderr


@pytest.mark.parametrize("key, value, word", [
    ("targets", [{"range_m": "a"}], "range_m"),
    ("targets", [{"range_m": 20.0, "speed": 5.0}], "speed"),
    ("snr_db", "x", "snr_db"),
    # levels a complex64 cube cannot carry: an OverflowError and a
    # ZeroDivisionError traceback, then cubes of inf samples at exit 0
    ("snr_db", 1e308, "snr_db"),
    ("snr_db", -1e308, "snr_db"),
    ("snr_db", -800.0, "snr_db"),
    ("targets", [{"range_m": 20.0, "amplitude": 1e39}], "amplitude"),
    ("rng_seed", 1.7, "rng_seed"),
    ("rng_seed", -1, "rng_seed"),
    ("snr", 10.0, "snr"),
])
def test_malformed_scene_json_exit_2(workdir, tmp_path, key, value, word):
    scene = json.loads((workdir / "scene.json").read_text())
    scene[key] = value
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    proc = _simulate_data_error(workdir, tmp_path, workdir / "params.json",
                                workdir / "geometry.json", tmp_path / "scene.json")
    assert word in proc.stderr


def test_negative_seed_exit_2(workdir, tmp_path):
    proc = _simulate_data_error(workdir, tmp_path, workdir / "params.json",
                                workdir / "geometry.json", None, "--seed", "-1")
    assert "rng_seed" in proc.stderr


def test_target_leaving_range_in_frame_b_writes_nothing(workdir, tmp_path):
    # 38.0 m at +50 m/s stays below the 38.4 m limit through frame a and
    # crosses it during frame b: neither cube is written
    scene = {"targets": [{"range_m": 38.0, "velocity_mps": 50.0}], "snr_db": 20.0}
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    proc = _simulate_data_error(workdir, tmp_path, workdir / "params.json",
                                workdir / "geometry.json", tmp_path / "scene.json")
    assert "leaves" in proc.stderr
    assert not (tmp_path / "b.rdc").exists()


@pytest.mark.parametrize("name, key", [("params.json", "n_tx"), ("geometry.json", "tx_positions"),
                                       ("scene.json", "snr_db"), ("scene.json", "range_m"),
                                       ("cal.json", "n_rx"), ("cal.json", "range_m")])
def test_duplicate_json_key_exit_2(workdir, tmp_path, name, key):
    # json.load keeps the last of two values without a word; every JSON input
    # refuses the document instead (scene "range_m" sits in a target, the
    # calibration's in its reference)
    paths = {n: workdir / n for n in ("params.json", "geometry.json", "scene.json")}
    paths["cal.json"] = tmp_path / "cal.json"
    write_calibration_json(CalibrationVector(np.ones((9, 16), dtype=complex), 5.0, 0.0,
                                             default_geometry()),
                           paths["cal.json"])
    text = paths[name].read_text()
    member = re.search(rf'"{key}": (\[[^\]]*\]|[^,}}\n]*)', text).group(0)
    paths[name] = tmp_path / f"repeated_{name}"
    paths[name].write_text(text.replace(member, f"{member}, {member}", 1))
    if name == "cal.json":
        proc = _process_data_error(workdir, tmp_path, workdir / "f0.rdc", workdir / "f1.rdc",
                                   "--cal", str(paths[name]))
    else:
        proc = _simulate_data_error(workdir, tmp_path, paths["params.json"],
                                    paths["geometry.json"], paths["scene.json"])
    assert f"duplicate keys ['{key}']" in proc.stderr


@pytest.mark.parametrize("command", ["process", "simulate", "calibrate"])
def test_directory_as_input_exit_2(workdir, tmp_path, command):
    # a directory where a file is read: --in-a, --params and --in
    folder = tmp_path / "folder"
    folder.mkdir()
    if command == "process":
        proc = _process_data_error(workdir, tmp_path, folder, workdir / "f1.rdc")
    elif command == "simulate":
        proc = _simulate_data_error(workdir, tmp_path, folder, workdir / "geometry.json")
    else:
        proc = _check_data_error(
            run_cli("calibrate", "--in", str(folder), "--params", str(workdir / "params.json"),
                    "--geometry", str(workdir / "geometry.json"), "--range", "5.0",
                    "--azimuth", "0.0", "--out", str(tmp_path / "cal.json")),
            tmp_path / "cal.json")
    assert "Is a directory" in proc.stderr


def test_process_reports_frame_a_error_first(workdir, tmp_path):
    # frame a's cube is read first, so its error is the one shown
    proc = _process_data_error(workdir, tmp_path, tmp_path, tmp_path / "missing.rdc")
    assert "Is a directory" in proc.stderr
    proc = _process_data_error(workdir, tmp_path, workdir / "f0.rdc", tmp_path / "missing.rdc")
    assert "missing.rdc" in proc.stderr


def test_directory_as_output_exit_2(workdir, tmp_path):
    # both outputs are checked before either frame is made, so frame b's
    # cube does not land either
    (tmp_path / "a.rdc").mkdir()
    proc = run_cli("simulate", "--scene", str(workdir / "scene.json"),
                   "--params", str(workdir / "params.json"),
                   "--geometry", str(workdir / "geometry.json"),
                   "--out-a", str(tmp_path / "a.rdc"), "--out-b", str(tmp_path / "b.rdc"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("tdmradar: error:")
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "Is a directory" in proc.stderr
    assert not (tmp_path / "b.rdc").exists()


def test_simulate_output_in_a_missing_directory_exit_2(workdir, tmp_path):
    # every output's directory is checked before either frame is made, so
    # the --out-a cube does not land either
    missing = tmp_path / "missing_dir" / "b.rdc"
    proc = _simulate_data_error(workdir, tmp_path, workdir / "params.json",
                                workdir / "geometry.json", None, "--out-b", str(missing))
    assert str(missing) in proc.stderr


def test_process_output_in_a_missing_directory_exit_2(workdir, tmp_path):
    # checked before either cube is read, so neither map lands either
    missing = tmp_path / "missing_dir" / "d.json"
    proc = _process_data_error(workdir, tmp_path, workdir / "f0.rdc", workdir / "f1.rdc",
                               "--out-det", str(missing))
    assert str(missing) in proc.stderr
    assert not (tmp_path / "m_b.ram").exists()


def test_params_not_utf8_exit_2(workdir, tmp_path):
    # a UTF-16 file starts with the byte-order mark \xff\xfe
    params = tmp_path / "params.json"
    params.write_bytes((workdir / "params.json").read_text().encode("utf-16"))
    assert params.read_bytes().startswith(b"\xff\xfe")
    proc = _simulate_data_error(workdir, tmp_path, params, workdir / "geometry.json")
    assert "utf-8" in proc.stderr

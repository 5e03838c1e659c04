import functools
import json
import re
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from tdmradar import (
    CalibrationVector,
    InvalidParameterError,
    RadarParams,
    default_geometry,
    run_pipeline,
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

# The suite's warning policy (pyproject.toml) applies inside CLI runs too.
CLI = [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
       "-W", "error::FutureWarning", "-m", "tdmradar.cli"]


def run_cli(*args, check=False):
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def test_cli_import_leaves_scipy_signal_and_stats_unloaded():
    # scipy.signal loads stats, optimize, linalg, sparse and more with it,
    # about half a second of every CLI start.
    proc = subprocess.run([sys.executable, "-c", "import sys, tdmradar, tdmradar.cli; print("
                           "[m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules])"],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


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
    run_cli("simulate", "--scene", str(workdir / "scene.json"),
            "--params", str(workdir / "params.json"),
            "--geometry", str(workdir / "geometry.json"),
            "--seed", "3",
            "--out-a", str(tmp_path / "f0.rdc"), "--out-b", str(tmp_path / "f1.rdc"),
            check=True)
    proc = run_cli("process", "--in-a", str(tmp_path / "f0.rdc"),
                   "--in-b", str(tmp_path / "f1.rdc"),
                   "--params", str(workdir / "params.json"),
                   "--geometry", str(workdir / "geometry.json"),
                   "--out-map", str(tmp_path / "map.ram"),
                   "--out-det", str(tmp_path / "det.json"), check=True)
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
    cube_a = read_cube(workdir / "f0.rdc", params)
    cube_b = read_cube(workdir / "f1.rdc", params)
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
    cube = read_cube(workdir / "f0.rdc", params)
    cube.samples[2, 5, 9] = np.nan
    write_cube(cube, tmp_path / "nan.rdc")
    proc = _process_data_error(workdir, tmp_path, tmp_path / "nan.rdc", workdir / "f1.rdc")
    assert "non-finite" in proc.stderr


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_frame_b_cube_exit_2(workdir, tmp_path, bad):
    params = RadarParams.from_json(workdir / "params.json")
    cube = read_cube(workdir / "f1.rdc", params)
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
    good = CalibrationVector(np.ones((9, 16), dtype=complex), 5.0, 0.0).to_dict()
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
    write_calibration_json(CalibrationVector(np.ones(shape, dtype=complex), 5.0, 0.0),
                           tmp_path / "cal.json")
    proc = _process_data_error(workdir, tmp_path, tmp_path / "a.rdc", tmp_path / "b.rdc",
                               "--cal", str(tmp_path / "cal.json"))
    assert "calibration" in proc.stderr


@pytest.mark.parametrize("gain", [[1, 0, 0], ["a", 0], [np.nan, 0], [np.inf, 0]])
def test_malformed_calibration_gain_exit_2(workdir, tmp_path, gain):
    cal = CalibrationVector(np.ones((9, 16), dtype=complex), 5.0, 0.0).to_dict()
    cal["gains"][7] = gain
    (tmp_path / "cal.json").write_text(json.dumps(cal))
    proc = _process_data_error(workdir, tmp_path, workdir / "f0.rdc", workdir / "f1.rdc",
                               "--cal", str(tmp_path / "cal.json"))
    assert "calibration gain" in proc.stderr


def _field_offsets(header: struct.Struct) -> list:
    """Offset of every field of a packed little-endian header, then its size."""
    codes = re.findall(r"\d*[a-zA-Z]", header.format[1:])
    return [struct.calcsize("<" + "".join(codes[:i])) for i in range(len(codes) + 1)]


def _fuzzed(blob: bytes, header: struct.Struct, dim_fields, rng) -> list:
    """Truncations at every header field boundary and inside the payload,
    plus one copy per dimension field set to 0xFFFFFFFF."""
    offsets = _field_offsets(header)
    cuts = offsets + sorted(rng.integers(header.size + 1, len(blob), 3).tolist())
    variants = [blob[:cut] for cut in cuts]
    for field in dim_fields:
        at = offsets[field]
        variants.append(blob[:at] + b"\xff\xff\xff\xff" + blob[at + 4:])
    return variants


@pytest.mark.parametrize("kind", ["cube", "map"])
def test_fuzzed_file_exit_2(workdir, tmp_path, capsys, kind):
    params = RadarParams.from_json(workdir / "params.json")
    rng = np.random.default_rng(2024)
    if kind == "cube":
        blob, header, dims = (workdir / "f0.rdc").read_bytes(), _CUBE_HEADER, (2, 3, 4)
        errors = (CubeFormatError, InvalidParameterError)
        read = functools.partial(read_cube, params=params)
        # one flipped byte of the params digest, the header's last field
        at = _CUBE_HEADER.size - 1
        extra = [blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1:]]
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


def test_geometry_positions_not_a_list_exit_2(workdir, tmp_path):
    geometry = default_geometry().to_dict()
    geometry["tx_positions"] = 5
    (tmp_path / "geometry.json").write_text(json.dumps(geometry))
    proc = _simulate_data_error(workdir, tmp_path, workdir / "params.json",
                                tmp_path / "geometry.json")
    assert "tx_positions" in proc.stderr


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

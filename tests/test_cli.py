import json
import subprocess
import sys

import numpy as np
import pytest

from tdmradar import (
    RadarParams,
    default_geometry,
    run_pipeline,
)
from tdmradar.fileio import read_cube, read_map, write_map

CLI = [sys.executable, "-m", "tdmradar.cli"]


def run_cli(*args, check=False):
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    params = dict(
        carrier_frequency_hz=77e9, bandwidth_hz=250e6, chirp_duration_s=20e-6,
        adc_samples_per_chirp=128, chirps_per_tx_per_frame=32, n_tx=9, n_rx=16,
        pri_frame_a_s=21.0e-6, pri_frame_b_s=27.2e-6, noise_snr_reference_db=20.0)
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
    return path


def test_simulate_then_process(workdir):
    run_cli("simulate", "--scene", str(workdir / "scene.json"),
            "--params", str(workdir / "params.json"),
            "--geometry", str(workdir / "geometry.json"),
            "--seed", "3",
            "--out-a", str(workdir / "f0.rdc"), "--out-b", str(workdir / "f1.rdc"),
            check=True)
    proc = run_cli("process", "--in-a", str(workdir / "f0.rdc"),
                   "--in-b", str(workdir / "f1.rdc"),
                   "--params", str(workdir / "params.json"),
                   "--geometry", str(workdir / "geometry.json"),
                   "--out-map", str(workdir / "map.ram"),
                   "--out-det", str(workdir / "det.json"), check=True)
    assert (workdir / "map.ram").exists()
    assert (workdir / "map_b.ram").exists()
    dets = json.loads((workdir / "det.json").read_text())["detections"]
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


def test_digest_mismatch_warns(workdir, tmp_path):
    params = json.loads((workdir / "params.json").read_text())
    params["noise_snr_reference_db"] = 11.0
    other = tmp_path / "params2.json"
    other.write_text(json.dumps(params))
    proc = run_cli("process", "--in-a", str(workdir / "f0.rdc"),
                   "--in-b", str(workdir / "f1.rdc"),
                   "--params", str(other),
                   "--geometry", str(workdir / "geometry.json"),
                   "--out-map", str(tmp_path / "m.ram"),
                   "--out-det", str(tmp_path / "d.json"), check=True)
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


@pytest.mark.parametrize("flag, value", [("--workers", "0"), ("--workers", "-2"),
                                         ("--pfa", "0")])
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

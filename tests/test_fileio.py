import numpy as np
import pytest

from tdmradar import InvalidParameterError, RadarParams, simulate_frame
from tdmradar.angle import CalibrationVector, RangeAzimuthMap
from tdmradar.fileio import (
    _CUBE_HEADER,
    CubeFormatError,
    MapFormatError,
    export_pgm,
    read_calibration_json,
    read_cube,
    read_map,
    write_calibration_json,
    write_cube,
    write_detections_json,
    write_map,
)
from tdmradar.pipeline import ResolvedDetection

from conftest import single_target_scene


@pytest.fixture
def cube(small_params, geometry):
    scene = single_target_scene(range_m=12.0, velocity_mps=1.0, azimuth_deg=4.0,
                                snr_db=25.0, seed=2)
    return simulate_frame(scene, small_params, geometry, 0)


class TestCubeFormat:
    def test_round_trip_bit_identical(self, cube, small_params, tmp_path):
        path = tmp_path / "frame.rdc"
        write_cube(cube, path)
        loaded = read_cube(path, small_params)
        # payload is float32, so one write/read quantizes; a second pass
        # must be exactly lossless
        path2 = tmp_path / "frame2.rdc"
        write_cube(loaded, path2)
        again = read_cube(path2, small_params)
        assert np.array_equal(loaded.samples, again.samples)
        assert path.read_bytes() == path2.read_bytes()
        np.testing.assert_allclose(loaded.samples, cube.samples, rtol=1e-6, atol=1e-5)

    def test_read_returns_writable_complex64(self, cube, small_params, tmp_path):
        path = tmp_path / "frame.rdc"
        write_cube(cube, path)
        loaded = read_cube(path, small_params)
        assert loaded.samples.dtype == np.complex64
        assert loaded.samples.flags.writeable
        loaded.samples[0, 0, 0] = 0.0

    def test_payload_size_arithmetic(self, cube, tmp_path):
        path = tmp_path / "frame.rdc"
        write_cube(cube, path)
        n_rx, n_chirps, n_fast = cube.samples.shape
        header_size = 4 + 2 + 4 * 4 + 8 + 32
        assert path.stat().st_size == header_size + n_rx * n_chirps * n_fast * 8

    def test_header_fields(self, cube, small_params, tmp_path):
        path = tmp_path / "frame.rdc"
        write_cube(cube, path)
        header = _CUBE_HEADER.unpack_from(path.read_bytes())
        _, _, n_rx, _, _, frame_index, pri_s, digest = header
        assert n_rx == small_params.n_rx
        assert frame_index == 0
        assert pri_s == small_params.pri_frame_a_s
        assert digest == small_params.digest()

    def test_bad_magic(self, cube, small_params, tmp_path):
        path = tmp_path / "frame.rdc"
        write_cube(cube, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(CubeFormatError, match="magic"):
            read_cube(path, small_params)

    def test_bad_version(self, cube, small_params, tmp_path):
        path = tmp_path / "frame.rdc"
        write_cube(cube, path)
        data = bytearray(path.read_bytes())
        # version 1 headers hashed a parameter set with a since-removed field
        for version in (1, 99):
            data[4:6] = version.to_bytes(2, "little")
            path.write_bytes(bytes(data))
            with pytest.raises(CubeFormatError, match=f"unsupported version {version} at offset 4"):
                read_cube(path, small_params)

    def test_truncated_payload(self, cube, small_params, tmp_path):
        path = tmp_path / "frame.rdc"
        write_cube(cube, path)
        data = path.read_bytes()
        path.write_bytes(data[:-100])
        with pytest.raises(CubeFormatError, match="offset"):
            read_cube(path, small_params)

    def test_params_mismatch(self, cube, small_params, tmp_path):
        path = tmp_path / "frame.rdc"
        write_cube(cube, path)
        # other dimensions, and the same dimensions and PRIs under another carrier
        other_dims = RadarParams(77e9, 250e6, 20e-6, 256, 32, 9, 16, 21.0e-6, 27.2e-6)
        other_carrier = RadarParams(**{**small_params.to_dict(), "carrier_frequency_hz": 70e9})
        for other, message in ((other_dims, "dimensions"), (other_carrier, "digest mismatch")):
            with pytest.raises(InvalidParameterError, match=message):
                read_cube(path, other)

    def test_pri_mismatch(self, cube, small_params, tmp_path):
        path = tmp_path / "frame.rdc"
        write_cube(cube, path)
        other = RadarParams(**{**small_params.to_dict(), "pri_frame_a_s": 22e-6})
        with pytest.raises(InvalidParameterError, match="PRI"):
            read_cube(path, other)


class TestMapFormat:
    def _map(self):
        rng = np.random.default_rng(5)
        return RangeAzimuthMap(power_db=rng.normal(size=(64, 32)).astype("<f4").astype(float),
                               kind="polar", axis0_bin_width=0.5996, axis0_origin=0.0,
                               axis1_bin_width=2 / 32, axis1_origin=-1.0)

    def test_round_trip(self, tmp_path):
        rmap = self._map()
        path = tmp_path / "m.ram"
        write_map(rmap, path)
        loaded = read_map(path)
        assert loaded.kind == rmap.kind
        assert loaded.axis0_bin_width == rmap.axis0_bin_width
        assert loaded.axis1_origin == rmap.axis1_origin
        np.testing.assert_array_equal(loaded.power_db, rmap.power_db)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ram"
        write_map(self._map(), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(MapFormatError, match="magic"):
            read_map(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "m.ram"
        write_map(self._map(), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(MapFormatError, match="offset"):
            read_map(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value(self, tmp_path, bad):
        rmap = self._map()
        rmap.power_db[3, 7] = bad
        path = tmp_path / "m.ram"
        write_map(rmap, path)
        offset = (path.stat().st_size - rmap.power_db.size * 4) + (3 * 32 + 7) * 4
        with pytest.raises(MapFormatError, match=f"non-finite dB value at offset {offset}$"):
            read_map(path)


class TestPgm:
    def test_max_pixel_at_peak_cell(self, tmp_path):
        power = np.full((16, 24), -80.0)
        power[5, 17] = 0.0
        rmap = RangeAzimuthMap(power_db=power, kind="polar",
                               axis0_bin_width=1.0, axis0_origin=0.0,
                               axis1_bin_width=1.0, axis1_origin=0.0)
        path = tmp_path / "m.pgm"
        export_pgm(rmap, path)
        blob = path.read_bytes()
        header, pixels = blob.split(b"65535\n", 1)
        assert header == b"P5\n24 16\n"
        image = np.frombuffer(pixels, dtype=">u2").reshape(16, 24)
        assert np.unravel_index(np.argmax(image), image.shape) == (5, 17)
        assert image[5, 17] == 65535


class TestJson:
    def test_detections(self, tmp_path):
        dets = [ResolvedDetection(range_m=10.0, velocity_mps=3.0, azimuth_deg=1.0,
                                  power_db=60.0, range_bin=17, doppler_bin_a=4,
                                  doppler_bin_b=None)]
        path = tmp_path / "d.json"
        write_detections_json(dets, path)
        import json

        data = json.loads(path.read_text())
        assert data["detections"][0]["range_m"] == 10.0
        assert data["detections"][0]["doppler_bin_b"] is None

    def test_calibration_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        gains = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        cal = CalibrationVector(gains, 5.0, 0.0)
        path = tmp_path / "cal.json"
        write_calibration_json(cal, path)
        loaded = read_calibration_json(path)
        np.testing.assert_allclose(loaded.gains, gains)
        assert loaded.reference_range_m == 5.0

import hashlib
import json
import os
import stat
import struct
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from tdmradar import (
    ArrayGeometry,
    InvalidParameterError,
    PointTarget,
    RadarParams,
    Scene,
    default_geometry,
    fileio,
    range_doppler_map,
    simulate_frame,
    tdm_demux,
)
from tdmradar import simulate
from tdmradar.angle import CalibrationVector, RangeAzimuthMap
from tdmradar.fileio import (
    _CUBE_HEADER,
    CubeFormatError,
    MapFormatError,
    export_pgm,
    read_cube,
    read_map,
    write_calibration_json,
    write_cube,
    write_detections_json,
    write_map,
    write_simulated_cube,
)
from tdmradar.pipeline import ResolvedDetection, run_pipeline

from conftest import SUBPROCESS_ENV, line_array, random_scene, single_target_scene

GEOMETRY = default_geometry()
# GEOMETRY with its RX positions reversed: the same counts, another array
PERMUTED = ArrayGeometry(GEOMETRY.tx_positions, GEOMETRY.rx_positions[::-1])


@pytest.fixture
def cube(small_params, geometry):
    scene = single_target_scene(range_m=12.0, velocity_mps=1.0, azimuth_deg=4.0,
                                snr_db=25.0, seed=2)
    return simulate_frame(scene, small_params, geometry, 0)


class TestCubeFormat:
    def test_round_trip_bit_identical(self, cube, small_params, tmp_path):
        path = tmp_path / "frame.rdc"
        write_cube(cube, path)
        loaded = read_cube(path, small_params, GEOMETRY)
        # payload is float32, so one write/read quantizes; a second pass
        # must be exactly lossless
        path2 = tmp_path / "frame2.rdc"
        write_cube(loaded, path2)
        again = read_cube(path2, small_params, GEOMETRY)
        assert np.array_equal(loaded.samples, again.samples)
        assert path.read_bytes() == path2.read_bytes()
        np.testing.assert_allclose(loaded.samples, cube.samples, rtol=1e-6, atol=1e-5)

    @pytest.mark.parametrize("block", [None, 1000])
    def test_streamed_cast_equals_one_shot_cast(self, cube, tmp_path, monkeypatch, block):
        # the cast goes through one fixed buffer; the cube's 589,824 samples
        # are a multiple of neither the default block nor 1000
        if block is not None:
            monkeypatch.setattr(fileio, "_CAST_BLOCK", block)
        assert cube.samples.size % fileio._CAST_BLOCK != 0
        write_cube(cube, tmp_path / "frame.rdc")
        payload = (tmp_path / "frame.rdc").read_bytes()[_CUBE_HEADER.size:]
        assert payload == np.ascontiguousarray(cube.samples, dtype="<c8").tobytes()

    def test_read_returns_writable_complex64(self, cube, small_params, tmp_path):
        path = tmp_path / "frame.rdc"
        write_cube(cube, path)
        loaded = read_cube(path, small_params, GEOMETRY)
        assert loaded.samples.dtype == np.complex64
        assert loaded.samples.flags.writeable
        loaded.samples[0, 0, 0] = 0.0

    def test_writes_into_the_read_array_stay_private(self, cube, small_params, tmp_path):
        path = tmp_path / "frame.rdc"
        write_cube(cube, path)
        before = path.read_bytes()
        loaded = read_cube(path, small_params, GEOMETRY)
        loaded.samples[...] = 7.0
        assert path.read_bytes() == before
        assert not np.array_equal(read_cube(path, small_params, GEOMETRY).samples,
                                  loaded.samples)

    def test_writes_into_the_read_array_survive_the_pipeline(self, small_params, tmp_path):
        # range_doppler_map releases each transformed RX block's pages, but
        # not a block holding a private write, which releasing would revert
        scene = single_target_scene(range_m=12.0, velocity_mps=1.0, snr_db=25.0, seed=2)
        for frame, start in _frames(small_params):
            write_simulated_cube(scene, small_params, GEOMETRY, frame, start,
                                 tmp_path / f"{frame}.rdc")
        cube_a, cube_b = (read_cube(tmp_path / f"{frame}.rdc", small_params, GEOMETRY)
                          for frame in (0, 1))
        cube_a.samples[5, 3, 7] = cube_b.samples[9, 100, 60] = 1e3
        run_pipeline(cube_a, cube_b, small_params, GEOMETRY)
        assert cube_a.samples[5, 3, 7] == cube_b.samples[9, 100, 60] == 1e3

    def test_unaligned_read_cube_transforms_like_an_aligned_copy(self, cube, small_params,
                                                                tmp_path):
        path = tmp_path / "frame.rdc"
        write_cube(cube, path)
        loaded = read_cube(path, small_params, GEOMETRY)
        assert not loaded.samples.flags.aligned  # the payload starts at byte 42
        aligned = replace(loaded, samples=loaded.samples.copy())
        assert aligned.samples.flags.aligned
        rd = [range_doppler_map(tdm_demux(c, c.plan), one_sided=True, dtype=np.complex64)
              for c in (loaded, aligned)]
        assert rd[0].values.tobytes() == rd[1].values.tobytes()

    def test_header_only_file(self, cube, small_params, tmp_path):
        # the size check runs before the payload is mapped, so an empty
        # payload never reaches mmap ("cannot mmap an empty file")
        path = tmp_path / "frame.rdc"
        write_cube(cube, path)
        path.write_bytes(path.read_bytes()[:_CUBE_HEADER.size])
        with pytest.raises(CubeFormatError,
                           match=f"payload is 0 bytes, expected {cube.samples.size * 8} "
                                 f"at offset {_CUBE_HEADER.size}$"):
            read_cube(path, small_params, GEOMETRY)

    def test_payload_size_arithmetic(self, cube, tmp_path):
        # magic, version, frame index and digest, then the payload; its size
        # comes from the params, so the header holds no dimension
        path = tmp_path / "frame.rdc"
        write_cube(cube, path)
        n_rx, n_chirps, n_fast = cube.samples.shape
        header_size = 4 + 2 + 4 + 32
        assert _CUBE_HEADER.size == header_size == 42
        assert path.stat().st_size == header_size + n_rx * n_chirps * n_fast * 8

    def test_header_fields(self, cube, small_params, tmp_path):
        path = tmp_path / "frame.rdc"
        write_cube(cube, path)
        magic, version, frame_index, digest = _CUBE_HEADER.unpack_from(path.read_bytes())
        assert (magic, version, frame_index) == (b"RDC1", 3, 0)
        blob = json.dumps({"params": small_params.to_dict(), "geometry": GEOMETRY.to_dict(),
                           "frame_index": 0}, sort_keys=True, separators=(",", ":"))
        assert digest == hashlib.sha256(blob.encode("utf-8")).digest()

    def test_digest_tracks_content(self, small_params):
        digest = fileio._digest(small_params, GEOMETRY, 0)
        assert digest == fileio._digest(RadarParams(**small_params.to_dict()), GEOMETRY, 0)
        other_params = RadarParams(**{**small_params.to_dict(), "bandwidth_hz": 300e6})
        assert digest != fileio._digest(other_params, GEOMETRY, 0)
        assert digest != fileio._digest(small_params, PERMUTED, 0)
        assert digest != fileio._digest(small_params, GEOMETRY, 2)

    def test_bad_magic(self, cube, small_params, tmp_path):
        path = tmp_path / "frame.rdc"
        write_cube(cube, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(CubeFormatError, match="magic"):
            read_cube(path, small_params, GEOMETRY)

    def test_bad_version(self, cube, small_params, tmp_path):
        path = tmp_path / "frame.rdc"
        write_cube(cube, path)
        data = bytearray(path.read_bytes())
        # version 2 is the format before this one; no compatibility path is kept
        for version in (1, 2, 99):
            data[4:6] = version.to_bytes(2, "little")
            path.write_bytes(bytes(data))
            with pytest.raises(CubeFormatError, match=f"unsupported version {version} at offset 4"):
                read_cube(path, small_params, GEOMETRY)

    def test_truncated_payload(self, cube, small_params, tmp_path):
        path = tmp_path / "frame.rdc"
        write_cube(cube, path)
        data = path.read_bytes()
        path.write_bytes(data[:-100])
        with pytest.raises(CubeFormatError, match="offset"):
            read_cube(path, small_params, GEOMETRY)

    def test_params_mismatch(self, cube, small_params, tmp_path):
        path = tmp_path / "frame.rdc"
        write_cube(cube, path)
        # other dimensions, and the same dimensions and PRIs under another carrier
        other_dims = RadarParams(77e9, 250e6, 20e-6, 256, 32, 9, 16, 21.0e-6, 27.2e-6)
        other_carrier = RadarParams(**{**small_params.to_dict(), "carrier_frequency_hz": 70e9})
        for other in (other_dims, other_carrier):
            with pytest.raises(InvalidParameterError, match="digest mismatch"):
                read_cube(path, other, GEOMETRY)

    def test_pri_mismatch(self, cube, small_params, tmp_path):
        path = tmp_path / "frame.rdc"
        write_cube(cube, path)
        other = RadarParams(**{**small_params.to_dict(), "pri_frame_a_s": 22e-6})
        with pytest.raises(InvalidParameterError, match="digest mismatch"):
            read_cube(path, other, GEOMETRY)

    @pytest.mark.parametrize("own, other", [(GEOMETRY, PERMUTED), (PERMUTED, GEOMETRY)],
                             ids=["default", "reversed_rx"])
    def test_cube_is_written_under_its_own_geometry(self, small_params, tmp_path, own, other):
        # write_cube stamps the array the cube carries, so the file reads back
        # under that array, and only under it
        path = tmp_path / "frame.rdc"
        write_cube(simulate_frame(Scene(), small_params, own, 0), path)
        assert read_cube(path, small_params, own).geometry == own
        with pytest.raises(InvalidParameterError, match="digest mismatch"):
            read_cube(path, small_params, other)


def _frames(params):
    """(frame index, start time) of a staggered pair's two frames."""
    return [(0, 0.0), (1, params.frame_duration_s(0))]


class TestSimulatedCube:
    """``write_simulated_cube`` against ``write_cube(simulate_frame(...))``, byte
    for byte: raw bits, so a -0.0 against a +0.0 counts as a difference."""

    @pytest.mark.parametrize("case", ["noiseless", "empty_noisy", "twelve_targets",
                                      "partial_blocks"])
    def test_bytes_equal_the_written_frame(self, small_params, geometry, tmp_path, case):
        # an empty scene's float64 array must not carry the real-part noise
        # into the imaginary pass; 4 chirps per TX leave a partial last slot
        # block and a partial last noise block
        params = small_params
        if case == "partial_blocks":
            params = RadarParams(**{**params.to_dict(), "chirps_per_tx_per_frame": 4})
        two = (PointTarget(12.0, 3.0, -10.0), PointTarget(25.0, -7.0, 20.0, 0.4))
        scene = {"noiseless": Scene(targets=two),
                 "empty_noisy": Scene(snr_db=15.0, rng_seed=11),
                 "twelve_targets": random_scene(params, 4)}.get(case, Scene(two, 15.0, 11))
        for frame, start in _frames(params):
            write_cube(simulate_frame(scene, params, geometry, frame, start), tmp_path / "ref.rdc")
            write_simulated_cube(scene, params, geometry, frame, start, tmp_path / "new.rdc")
            assert (tmp_path / "new.rdc").read_bytes() == (tmp_path / "ref.rdc").read_bytes()

    @pytest.mark.parametrize("snr_db", [None, 15.0])
    def test_negative_zero_sums_are_written_as_positive_zero(self, small_params, geometry,
                                                             tmp_path, monkeypatch, snr_db):
        # A frame's samples start at +0.0, so simulate_frame turns a -0.0 sum into
        # +0.0.  Signal sums of -0.0 (every fourth sample), and with noise a zero
        # scale (noise of -0.0 for every negative draw), must reach the file so.
        signal_sums = simulate._signal_sums

        def with_negative_zeros(*args):
            for rx, slots, sums in signal_sums(*args):
                sums[:, ::4] = complex(-0.0, -0.0)
                yield rx, slots, sums

        def zero_scale(*args):
            fill = noise(*args)
            return lambda out: np.multiply(fill(out), 0.0, out=out)

        noise = simulate._noise
        for module in (simulate, fileio):
            monkeypatch.setattr(module, "_signal_sums", with_negative_zeros)
            monkeypatch.setattr(module, "_noise", zero_scale)
        scene = Scene(targets=(PointTarget(12.0, 3.0, -10.0),), snr_db=snr_db, rng_seed=2)
        for frame, start in _frames(small_params):
            write_cube(simulate_frame(scene, small_params, geometry, frame, start),
                       tmp_path / "ref.rdc")
            write_simulated_cube(scene, small_params, geometry, frame, start,
                                 tmp_path / "new.rdc")
            payload = np.fromfile(tmp_path / "new.rdc", dtype="<f4", offset=_CUBE_HEADER.size)
            assert (payload == 0.0).sum() >= payload.size // 8
            assert not np.signbit(payload[payload == 0.0]).any()
            assert (tmp_path / "new.rdc").read_bytes() == (tmp_path / "ref.rdc").read_bytes()

    @pytest.mark.parametrize("kind", ["fifo", "device"])
    def test_refuses_an_output_that_cannot_stage_it(self, small_params, geometry, tmp_path,
                                                     kind):
        # the cube is staged in its output file, which a FIFO or a device
        # cannot hold; the refusal comes before any synthesis
        path = tmp_path / "f.rdc" if kind == "fifo" else os.devnull
        if kind == "fifo":
            os.mkfifo(path)
        with pytest.raises(InvalidParameterError, match="is not a regular file"):
            write_simulated_cube(Scene(targets=(PointTarget(12.0, 3.0),)), small_params,
                                 geometry, 0, 0.0, path)

    def test_refuses_a_target_leaving_the_range(self, small_params, geometry, tmp_path):
        scene = Scene(targets=(PointTarget(small_params.max_unambiguous_range_m - 0.01, 5.0),))
        with pytest.raises(InvalidParameterError, match="leaves"):
            write_simulated_cube(scene, small_params, geometry, 0, 0.0, tmp_path / "f.rdc")
        assert not (tmp_path / "f.rdc").exists()


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

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "m.ram"
        write_map(self._map(), path)
        path.write_bytes(path.read_bytes()[:fileio._MAP_HEADER.size])
        with pytest.raises(MapFormatError,
                           match=f"payload is 0 bytes, expected {64 * 32 * 4} "
                                 f"at offset {fileio._MAP_HEADER.size}$"):
            read_map(path)

    @pytest.mark.parametrize("field, value", [(0, 0.0), (0, np.nan), (0, -0.6), (1, np.inf),
                                              (2, -np.inf), (2, -0.0), (3, np.nan)])
    def test_bad_axis_float(self, tmp_path, field, value):
        # the fields are axis0 width, axis0 origin, axis1 width, axis1
        # origin: a width must be finite and positive, an origin finite
        path = tmp_path / "m.ram"
        write_map(self._map(), path)
        data = bytearray(path.read_bytes())
        offset = 13 + 8 * field
        data[offset:offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        with pytest.raises(MapFormatError, match=f"at offset {offset}$"):
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
        cal = CalibrationVector(gains, 5.0, 0.0, line_array(3, 4))
        path = tmp_path / "cal.json"
        write_calibration_json(cal, path)
        loaded = CalibrationVector.from_json(path)
        np.testing.assert_allclose(loaded.gains, gains)
        assert loaded.reference_range_m == 5.0


_MAP = RangeAzimuthMap(power_db=np.arange(12.0).reshape(3, 4), kind="polar",
                       axis0_bin_width=1.0, axis0_origin=0.0,
                       axis1_bin_width=1.0, axis1_origin=0.0)

# Each writer, with the argument it writes.
WRITERS = {
    "cube": lambda cube, path: write_cube(cube, path),
    "map": lambda cube, path: write_map(_MAP, path),
    "pgm": lambda cube, path: export_pgm(_MAP, path),
    "detections": lambda cube, path: write_detections_json([], path),
    "calibration": lambda cube, path: write_calibration_json(
        CalibrationVector(np.ones((2, 3), complex), 5.0, 0.0, line_array(2, 3)), path),
}

# Reads the cube at argv[2] under the params at argv[1] and the default
# geometry and writes it back to the path argv[3], in a child process so that
# a SIGBUS shows as its exit.  With a fourth argument, the cube written back is
# a smaller one, made under argv[1]'s params with that many chirps per TX; the
# cube read must keep its samples either way.
_WRITE_BACK = """
import sys
import numpy as np
from tdmradar import RadarParams, Scene, default_geometry, fileio, simulate_frame
geometry = default_geometry()
params = RadarParams.from_json(sys.argv[1])
cube = fileio.read_cube(sys.argv[2], params, geometry)
kept = cube.samples.copy()
if len(sys.argv) > 4:
    smaller = RadarParams(**{**params.to_dict(), "chirps_per_tx_per_frame": int(sys.argv[4])})
    fileio.write_cube(simulate_frame(Scene(), smaller, geometry, 0), sys.argv[3])
else:
    fileio.write_cube(cube, sys.argv[3])
assert np.array_equal(cube.samples, kept)
"""


def _write_back_in_child(params, read, written, tmp_path, *chirps_per_tx):
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params.to_dict()))
    return subprocess.run([sys.executable, "-c", _WRITE_BACK, str(params_path), str(read),
                           str(written), *map(str, chirps_per_tx)],
                          env=SUBPROCESS_ENV, capture_output=True, text=True)


# Writes a 3 x 4 map to the path argv[1] and prints the error that refuses it.
_WRITE_MAP = """
import sys
import numpy as np
from tdmradar import InvalidParameterError, fileio
from tdmradar.angle import RangeAzimuthMap
try:
    fileio.write_map(RangeAzimuthMap(np.zeros((3, 4)), "polar", 1.0, 0.0, 1.0, 0.0), sys.argv[1])
except InvalidParameterError as exc:
    print(exc)
"""


class TestReplacingWrites:
    """The cube and map writers write a new inode: a regular file at the path
    is unlinked, whatever its link count, and anything else is refused, so
    no other name of the file and no reader of it sees the write.  A write
    that fails leaves no file.  The small-file writers rewrite in place."""

    @pytest.mark.parametrize("writer", ["cube", "map"])
    def test_overwrite_gives_the_path_a_new_inode(self, cube, tmp_path, writer):
        path = tmp_path / "out"
        path.write_bytes(b"old contents")
        # the open handle keeps the old inode, so its number cannot be reused
        with open(path, "rb") as old:
            WRITERS[writer](cube, path)
            assert os.stat(path).st_ino != os.fstat(old.fileno()).st_ino
            assert old.read() == b"old contents"
        assert path.read_bytes() != b"old contents"

    @pytest.mark.parametrize("writer", ["pgm", "detections", "calibration"])
    def test_small_files_are_rewritten_in_place(self, cube, tmp_path, writer):
        path = tmp_path / "out"
        path.write_bytes(b"old contents")
        path.chmod(0o600)
        inode = os.stat(path).st_ino
        WRITERS[writer](cube, path)
        assert os.stat(path).st_ino == inode
        assert os.stat(path).st_mode & 0o777 == 0o600
        assert path.read_bytes() != b"old contents"

    def test_read_cube_keeps_its_samples_when_its_path_is_rewritten(self, cube, small_params,
                                                                     tmp_path):
        path = tmp_path / "frame.rdc"
        write_cube(cube, path)
        loaded = read_cube(path, small_params, GEOMETRY)
        kept = loaded.samples.copy()
        write_cube(replace(cube, samples=cube.samples * 2.0), path)
        assert np.array_equal(loaded.samples, kept)
        assert np.array_equal(read_cube(path, small_params, GEOMETRY).samples, kept * 2.0)

    def test_symlink_target_is_replaced(self, cube, small_params, tmp_path):
        target, link = tmp_path / "target.rdc", tmp_path / "link.rdc"
        write_cube(cube, target)
        link.symlink_to(target)
        inode = os.stat(target).st_ino
        loaded = read_cube(link, small_params, GEOMETRY)
        kept = loaded.samples.copy()
        doubled = replace(cube, samples=cube.samples * 2.0)
        write_cube(doubled, link)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert os.stat(target).st_ino != inode
        assert np.array_equal(loaded.samples, kept)
        write_cube(doubled, tmp_path / "plain.rdc")
        assert target.read_bytes() == (tmp_path / "plain.rdc").read_bytes()

    @pytest.mark.parametrize("extra", [-4_000_000, 1000])
    def test_hard_links_keep_both_names(self, cube, tmp_path, extra):
        # the old file is smaller or larger than the cube; the written name
        # gets a new inode, and the other name keeps the old bytes
        first, second = tmp_path / "first.rdc", tmp_path / "second.rdc"
        old = b"x" * (_CUBE_HEADER.size + cube.samples.size * 8 + extra)
        first.write_bytes(old)
        os.link(first, second)
        inode = os.stat(second).st_ino
        write_cube(cube, first)
        write_cube(cube, tmp_path / "plain.rdc")
        assert os.stat(first).st_ino != inode == os.stat(second).st_ino
        assert first.read_bytes() == (tmp_path / "plain.rdc").read_bytes()
        assert second.read_bytes() == old

    @pytest.mark.parametrize("link", ["symlink", "hard link"])
    def test_read_cube_written_back_through_a_link(self, cube, small_params, tmp_path, link):
        target, path = tmp_path / "target.rdc", tmp_path / "link.rdc"
        write_cube(cube, target)
        before = target.read_bytes()
        if link == "symlink":
            path.symlink_to(target)
        else:
            os.link(target, path)
        child = _write_back_in_child(small_params, path, path, tmp_path)
        assert child.returncode == 0, (child.returncode, child.stderr)
        assert path.read_bytes() == target.read_bytes() == before
        assert path.is_symlink() if link == "symlink" else not os.path.samefile(path, target)

    def test_smaller_cube_over_another_name_of_a_read_cube(self, cube, small_params, tmp_path):
        # the cube read through one hard link keeps its samples when a smaller
        # cube is written over the other name: were the shared inode rewritten
        # in place and cut to the smaller length, the reader would die of SIGBUS
        x, y = tmp_path / "x.rdc", tmp_path / "y.rdc"
        write_cube(cube, x)
        before = x.read_bytes()
        os.link(x, y)
        child = _write_back_in_child(small_params, y, x, tmp_path, 4)
        assert child.returncode == 0, (child.returncode, child.stderr)
        assert y.read_bytes() == before
        assert x.stat().st_size < len(before)

    def test_failed_write_leaves_no_file(self, small_params, geometry, tmp_path, monkeypatch):
        # a write_simulated_cube cut short would leave a full-size file with a
        # valid header, whose samples are staging bytes that read_cube accepts
        signal_sums = fileio._signal_sums

        def failing(*args):
            for i, block in enumerate(signal_sums(*args)):
                if i == 5:
                    raise RuntimeError("interrupted")
                yield block

        monkeypatch.setattr(fileio, "_signal_sums", failing)
        path = tmp_path / "f.rdc"
        path.write_bytes(b"old contents")
        with pytest.raises(RuntimeError, match="interrupted"):
            write_simulated_cube(Scene(targets=(PointTarget(12.0, 3.0),), snr_db=15.0),
                                 small_params, geometry, 0, 0.0, path)
        assert not path.exists()

    def test_device_is_never_unlinked(self, monkeypatch):
        unlinked = []

        def refuse(path, *args, **kwargs):
            unlinked.append(path)
            raise AssertionError(f"unlink({path!r})")

        monkeypatch.setattr(os, "unlink", refuse)
        with pytest.raises(InvalidParameterError, match=f"{os.devnull} is not a regular file"):
            write_map(_MAP, os.devnull)
        assert unlinked == []

    def test_map_into_a_fifo_is_refused(self, tmp_path):
        # opening a FIFO with no reader blocks, so the map must be refused
        # before any open; a child process, so a regression cannot hang the suite
        path = tmp_path / "map.fifo"
        os.mkfifo(path)
        child = subprocess.run([sys.executable, "-c", _WRITE_MAP, str(path)], env=SUBPROCESS_ENV,
                               capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr
        assert child.stdout.startswith(f"{path} is not a regular file")
        assert stat.S_ISFIFO(os.stat(path).st_mode)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_open_descriptors_per_live_cube(cube, small_params, tmp_path):
    # before Python 3.13 each mapping keeps a duplicate of its file's descriptor
    per_cube = 0 if sys.version_info >= (3, 13) else 1
    path = tmp_path / "frame.rdc"
    write_cube(cube, path)
    before = len(os.listdir("/proc/self/fd"))
    cubes = [read_cube(path, small_params, GEOMETRY) for _ in range(5)]
    assert len(os.listdir("/proc/self/fd")) - before == 5 * per_cube
    del cubes
    assert len(os.listdir("/proc/self/fd")) == before

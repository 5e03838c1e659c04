"""Bit-exact binary formats for cubes and maps, plus the JSON side files.

Cube files ("RDC1", little-endian):
    magic 4s | version u16 (3) | frame_index u32 | digest 32s
followed by float32 (re, im) pairs in (rx, chirp, fast) order.  The digest
names what made the cube: its parameters, array geometry and frame index.

Map files ("RAM1", little-endian):
    magic 4s | kind u8 (0 polar, 1 cartesian) | dims u32 x2 |
    axis0 width f64 | axis0 origin f64 | axis1 width f64 | axis1 origin f64
followed by float32 dB values, row-major.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import mmap
import os
import stat
import struct
import sys
from dataclasses import asdict

import numpy as np

from .angle import FLOOR_DB, CalibrationVector, RangeAzimuthMap
from .config import _SCRATCH_BYTES, ArrayGeometry, RadarParams, _require, build_frame_plan
from .simulate import _SLOT_BLOCK, DataCube, Scene, _check_frame, _noise, _signal_sums

CUBE_MAGIC = b"RDC1"
CUBE_VERSION = 3
_CUBE_HEADER = struct.Struct("<4sHI32s")

MAP_MAGIC = b"RAM1"
_MAP_HEADER = struct.Struct("<4sBIIdddd")

# Samples cast to <c8 per write_cube step: one _SCRATCH_BYTES buffer, however large the cube.
_CAST_BLOCK = _SCRATCH_BYTES // 8

# Before Python 3.13 a mapping holds a duplicate of its file's descriptor
# until it is freed, so each live read_cube array keeps one file open.
_MMAP_FD = {"trackfd": False} if sys.version_info >= (3, 13) else {}

_MAP_KINDS = {"polar": 0, "cartesian": 1}
_MAP_KIND_NAMES = {v: k for k, v in _MAP_KINDS.items()}


class CubeFormatError(RuntimeError):
    """Malformed cube file; the message names the failing byte offset."""


class MapFormatError(RuntimeError):
    """Malformed map file; the message names the failing byte offset."""


def _check_output(path) -> None:
    """Cubes and maps are written as new regular files: refuse a directory, as
    opening it would, and a FIFO or a device, which cannot be replaced."""
    mode = os.stat(path).st_mode if os.path.exists(path) else stat.S_IFREG
    if stat.S_ISDIR(mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    _require(stat.S_ISREG(mode),
             f"{path} is not a regular file: cubes and maps are written as new files")


@contextlib.contextmanager
def _replacing(path):
    """``open(path, "w+b")`` on a new inode, for the two large binary formats.
    A regular file at ``path`` (a symlink's target, if ``path`` is one) is
    unlinked, whatever its link count, so its readers and its other names keep
    its bytes, and ext4 does not flush the new file at close as it does one
    truncated and rewritten; anything else there is refused.  A body that
    raises unlinks the new file, so no partly written file is left to read."""
    _check_output(path)
    path = os.path.realpath(path)
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    with open(path, "w+b") as fh:
        try:
            yield fh
        except BaseException:
            os.unlink(path)
            raise


def _read_payload(fh, offset: int, dtype: str, count: int, error) -> np.ndarray:
    """The ``count`` values after the header, mapped copy-on-write (writable,
    and writes stay private); a wrong-sized file is rejected unmapped."""
    size = os.fstat(fh.fileno()).st_size - offset
    expected = count * np.dtype(dtype).itemsize
    if size != expected:
        raise error(f"payload is {size} bytes, expected {expected} at offset {offset}")
    payload = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY, **_MMAP_FD)
    return np.frombuffer(payload, dtype=dtype, count=count, offset=offset)


def _digest(params: RadarParams, geometry: ArrayGeometry, frame_index: int) -> bytes:
    """SHA-256 over the canonical JSON of a cube's params, geometry and frame index."""
    geometry.check_shape(params.n_tx, params.n_rx)
    blob = json.dumps({"params": params.to_dict(), "geometry": geometry.to_dict(),
                       "frame_index": frame_index}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).digest()


def _cube_header(params: RadarParams, geometry: ArrayGeometry, frame_index: int) -> bytes:
    return _CUBE_HEADER.pack(CUBE_MAGIC, CUBE_VERSION, frame_index,
                             _digest(params, geometry, frame_index))


def write_cube(cube: DataCube, path) -> None:
    """Write ``cube`` under a header naming its params, geometry and frame index."""
    header = _cube_header(cube.params, cube.geometry, cube.plan.frame_index)
    flat = cube.samples.reshape(-1)
    buf = np.empty(min(flat.size, _CAST_BLOCK), dtype="<c8")
    with _replacing(path) as fh:
        fh.write(header)
        for start in range(0, flat.size, _CAST_BLOCK):
            block = buf[:flat.size - start]
            block[...] = flat[start:start + block.size]
            fh.write(block)


def write_simulated_cube(scene: Scene, params: RadarParams, geometry: ArrayGeometry,
                         frame_index: int, start_time_s: float, path) -> None:
    """Write the cube that ``write_cube(simulate_frame(scene, params, geometry,
    frame_index, start_time_s), path)`` writes, byte for byte,
    without holding the frame: the output file's 8-byte sample slots stage it.
    Three passes in the noise stream's order: the real-part noise ``n_re`` is
    drawn and written as float64, ``_CAST_BLOCK`` samples at a time; each
    signal block, one contiguous (RX row, slot block) span of the file, is read
    back, its ``S_re + n_re`` kept as float32 and ``S_im`` written over the
    span; then each cast block's ``S_im`` is read, the imaginary-part noise
    drawn and added, and the interleaved complex64 block written in place.  So
    the frame holds 4 bytes a sample in memory, 37.7 MB at default params,
    plus two ``_SCRATCH_BYTES`` buffers and one signal block, and ``path`` must
    be a regular file or new.  Each sample is rounded once from the float64
    ``S + n``, plus +0.0: a frame's samples start at +0.0, so a -0.0 sum is
    +0.0 in ``simulate_frame`` too."""
    plan = _check_frame(scene, params, geometry, frame_index, start_time_s)
    header = _cube_header(params, geometry, frame_index)
    n_slots, n_fast = plan.chirp_count_total, params.adc_samples_per_chirp
    size = params.n_rx * n_slots * n_fast
    noise = _noise(scene, params, frame_index)
    real = np.empty(size, dtype=np.float32)
    buf = np.empty(min(size, _CAST_BLOCK), dtype="<c8")
    draw = np.empty(buf.size)
    stage = np.empty((min(n_slots, _SLOT_BLOCK), n_fast))
    with _replacing(path) as fh:
        fh.write(header)
        for start in range(0, size, _CAST_BLOCK):
            part = noise(draw[:size - start])
            if not scene.targets:  # no signal blocks: S = +0.0 everywhere
                np.add(part, 0.0, out=real[start:start + part.size])
                part[...] = 0.0
            fh.write(part)

        real_grid = real.reshape(params.n_rx, n_slots, n_fast)
        for rx, slots, sums in _signal_sums(scene, params, plan, geometry, start_time_s):
            chunk = stage[:len(sums)]
            offset = _CUBE_HEADER.size + 8 * n_fast * (rx * n_slots + slots.start)
            fh.seek(offset)
            fh.readinto(chunk)
            np.add(np.add(chunk, sums.real, out=chunk), 0.0, out=real_grid[rx, slots])
            chunk[...] = sums.imag
            fh.seek(offset)
            fh.write(chunk)

        for start in range(0, size, _CAST_BLOCK):
            block, imag = buf[:size - start], draw[:size - start]
            offset = _CUBE_HEADER.size + 8 * start
            fh.seek(offset)
            fh.readinto(imag)
            imag += noise(block.view(np.float64))
            np.add(imag, 0.0, out=block.imag)
            block.real[...] = real[start:start + block.size]
            fh.seek(offset)
            fh.write(block)


def read_cube(path, params: RadarParams, geometry: ArrayGeometry) -> DataCube:
    """Read a cube made under ``params`` and recorded by ``geometry`` (exact inverse of
    ``write_cube`` up to the float32 storage width).  A cube whose digest names other
    params, another geometry or another frame index raises ``InvalidParameterError``.
    The samples come back as a writable complex64 array, the width they are stored
    in, mapped copy-on-write from the file, with ``geometry`` as the cube's own."""
    with open(path, "rb") as fh:
        raw = fh.read(_CUBE_HEADER.size)
        if len(raw) < _CUBE_HEADER.size:
            raise CubeFormatError(f"truncated header: {len(raw)} bytes at offset 0")
        magic, version, frame_index, digest = _CUBE_HEADER.unpack(raw)
        if magic != CUBE_MAGIC:
            raise CubeFormatError(f"bad magic {magic!r} at offset 0")
        if version != CUBE_VERSION:
            raise CubeFormatError(f"unsupported version {version} at offset 4")
        _require(digest == _digest(params, geometry, frame_index),
                 f"{path} was made under other radar parameters, array geometry or frame "
                 "index (digest mismatch)")

        plan = build_frame_plan(params, frame_index)
        shape = (params.n_rx, plan.chirp_count_total, params.adc_samples_per_chirp)
        samples = _read_payload(fh, _CUBE_HEADER.size, "<c8", int(np.prod(shape)),
                                CubeFormatError)
    return DataCube(samples.reshape(shape), plan, params, geometry)


def write_map(rmap: RangeAzimuthMap, path) -> None:
    header = _MAP_HEADER.pack(
        MAP_MAGIC, _MAP_KINDS[rmap.kind],
        rmap.power_db.shape[0], rmap.power_db.shape[1],
        rmap.axis0_bin_width, rmap.axis0_origin,
        rmap.axis1_bin_width, rmap.axis1_origin,
    )
    with _replacing(path) as fh:
        fh.write(header)
        fh.write(rmap.power_db.astype("<f4", order="C"))


def read_map(path) -> RangeAzimuthMap:
    with open(path, "rb") as fh:
        raw = fh.read(_MAP_HEADER.size)
        if len(raw) < _MAP_HEADER.size:
            raise MapFormatError(f"truncated header: {len(raw)} bytes at offset 0")
        magic, kind, dim0, dim1, w0, o0, w1, o1 = _MAP_HEADER.unpack(raw)
        if magic != MAP_MAGIC:
            raise MapFormatError(f"bad magic {magic!r} at offset 0")
        if kind not in _MAP_KIND_NAMES:
            raise MapFormatError(f"unknown map kind {kind} at offset 4")
        if dim0 <= 0 or dim1 <= 0:
            raise MapFormatError("non-positive dimension at offset 5")
        # the four axis floats start at offset 13
        for i, (what, value) in enumerate((("width", w0), ("origin", o0),
                                           ("width", w1), ("origin", o1))):
            if not np.isfinite(value) or (what == "width" and value <= 0):
                raise MapFormatError(f"bad axis{i // 2} {what} {value} at offset {13 + 8 * i}")
        power = _read_payload(fh, _MAP_HEADER.size, "<f4", dim0 * dim1, MapFormatError)
    power = power.reshape(dim0, dim1).astype(float)
    bad = np.flatnonzero(~np.isfinite(power))
    if bad.size:
        raise MapFormatError(f"non-finite dB value at offset {_MAP_HEADER.size + 4 * bad[0]}")
    return RangeAzimuthMap(power_db=power, kind=_MAP_KIND_NAMES[kind],
                           axis0_bin_width=w0, axis0_origin=o0,
                           axis1_bin_width=w1, axis1_origin=o1)


def export_pgm(rmap: RangeAzimuthMap, path) -> None:
    """16-bit grayscale PGM (P5), dB-clipped to [FLOOR_DB, peak].  Rows
    follow axis 0 of the map, columns axis 1."""
    values = np.clip(rmap.power_db, FLOOR_DB, None)
    peak = float(values.max())
    span = peak - FLOOR_DB
    if span <= 0:
        pixels = np.zeros_like(values)
    else:
        pixels = (values - FLOOR_DB) / span * 65535.0
    pixels = pixels.astype(">u2", order="C")
    rows, cols = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n65535\n".encode("ascii"))
        fh.write(pixels)


def write_detections_json(detections, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"detections": [asdict(d) for d in detections]}, fh, indent=2)


def write_calibration_json(cal: CalibrationVector, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cal.to_dict(), fh, indent=2)

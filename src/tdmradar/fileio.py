"""Bit-exact binary formats for cubes and maps, plus the JSON side files.

Cube files ("RDC1", little-endian):
    magic 4s | version u16 (2) | n_rx u32 | n_chirps u32 | n_fast u32 |
    frame_index u32 | pri f64 | params digest 32s
followed by float32 (re, im) pairs in (rx, chirp, fast) order.

Map files ("RAM1", little-endian):
    magic 4s | kind u8 (0 polar, 1 cartesian) | dims u32 x2 |
    axis0 width f64 | axis0 origin f64 | axis1 width f64 | axis1 origin f64
followed by float32 dB values, row-major.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .angle import FLOOR_DB, CalibrationVector, RangeAzimuthMap
from .config import InvalidParameterError, RadarParams, build_frame_plan
from .simulate import DataCube

CUBE_MAGIC = b"RDC1"
CUBE_VERSION = 2
_CUBE_HEADER = struct.Struct("<4sHIIIId32s")

MAP_MAGIC = b"RAM1"
_MAP_HEADER = struct.Struct("<4sBIIdddd")

_MAP_KINDS = {"polar": 0, "cartesian": 1}
_MAP_KIND_NAMES = {v: k for k, v in _MAP_KINDS.items()}


class CubeFormatError(RuntimeError):
    """Malformed cube file; the message names the failing byte offset."""


class MapFormatError(RuntimeError):
    """Malformed map file; the message names the failing byte offset."""


@dataclass
class CubeFileHeader:
    n_rx: int
    n_chirps: int
    n_fast: int
    frame_index: int
    pri_s: float
    params_digest: bytes


def write_cube(cube: DataCube, path) -> None:
    header = _CUBE_HEADER.pack(
        CUBE_MAGIC, CUBE_VERSION,
        cube.params.n_rx, cube.plan.chirp_count_total,
        cube.params.adc_samples_per_chirp, cube.plan.frame_index,
        cube.plan.slot_interval_s, cube.params.digest(),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(cube.samples, dtype="<c8"))


def read_cube_header(path) -> CubeFileHeader:
    with open(path, "rb") as fh:
        raw = fh.read(_CUBE_HEADER.size)
    if len(raw) < _CUBE_HEADER.size:
        raise CubeFormatError(f"truncated header: {len(raw)} bytes at offset 0")
    magic, version, n_rx, n_chirps, n_fast, frame_index, pri, digest = _CUBE_HEADER.unpack(raw)
    if magic != CUBE_MAGIC:
        raise CubeFormatError(f"bad magic {magic!r} at offset 0")
    if version != CUBE_VERSION:
        raise CubeFormatError(f"unsupported version {version} at offset 4")
    if min(n_rx, n_chirps, n_fast) <= 0:
        raise CubeFormatError("non-positive dimension at offset 6")
    return CubeFileHeader(n_rx=n_rx, n_chirps=n_chirps, n_fast=n_fast,
                          frame_index=frame_index, pri_s=pri, params_digest=digest)


def read_cube(path, params: RadarParams) -> DataCube:
    """Read a cube and bind it to the given parameters (exact inverse of
    ``write_cube`` up to the float32 storage width).  The samples come back
    as a writable complex64 array, the width they are stored in."""
    header = read_cube_header(path)
    plan = build_frame_plan(params, header.frame_index)
    if (header.n_rx, header.n_chirps, header.n_fast) != (
            params.n_rx, plan.chirp_count_total, params.adc_samples_per_chirp):
        raise InvalidParameterError(
            f"cube dimensions ({header.n_rx}, {header.n_chirps}, {header.n_fast}) "
            "do not match the radar parameters")
    if abs(header.pri_s - plan.slot_interval_s) > 1e-12:
        raise InvalidParameterError(
            f"cube PRI {header.pri_s} differs from the parameter set's "
            f"{plan.slot_interval_s} for frame {header.frame_index}")

    shape = (header.n_rx, header.n_chirps, header.n_fast)
    expected = header.n_rx * header.n_chirps * header.n_fast * 8
    with open(path, "rb") as fh:
        # Check the size first: a wrong-sized file is rejected unread.
        size = os.fstat(fh.fileno()).st_size - _CUBE_HEADER.size
        if size != expected:
            raise CubeFormatError(
                f"payload is {size} bytes, expected {expected} "
                f"at offset {_CUBE_HEADER.size}")
        fh.seek(_CUBE_HEADER.size)
        samples = np.fromfile(fh, dtype="<c8", count=expected // 8)
    return DataCube(samples=samples.reshape(shape), plan=plan, params=params)


def digest_matches(path, params: RadarParams) -> bool:
    return read_cube_header(path).params_digest == params.digest()


def write_map(rmap: RangeAzimuthMap, path) -> None:
    header = _MAP_HEADER.pack(
        MAP_MAGIC, _MAP_KINDS[rmap.kind],
        rmap.power_db.shape[0], rmap.power_db.shape[1],
        rmap.axis0_bin_width, rmap.axis0_origin,
        rmap.axis1_bin_width, rmap.axis1_origin,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(rmap.power_db.astype("<f4").tobytes())


def read_map(path) -> RangeAzimuthMap:
    with open(path, "rb") as fh:
        raw = fh.read(_MAP_HEADER.size)
        size = os.fstat(fh.fileno()).st_size - _MAP_HEADER.size
    if len(raw) < _MAP_HEADER.size:
        raise MapFormatError(f"truncated header: {len(raw)} bytes at offset 0")
    magic, kind, dim0, dim1, w0, o0, w1, o1 = _MAP_HEADER.unpack(raw)
    if magic != MAP_MAGIC:
        raise MapFormatError(f"bad magic {magic!r} at offset 0")
    if kind not in _MAP_KIND_NAMES:
        raise MapFormatError(f"unknown map kind {kind} at offset 4")
    if dim0 <= 0 or dim1 <= 0:
        raise MapFormatError("non-positive dimension at offset 5")
    expected = dim0 * dim1 * 4
    # As in read_cube: a wrong-sized file is rejected unread.
    if size != expected:
        raise MapFormatError(
            f"payload is {size} bytes, expected {expected} "
            f"at offset {_MAP_HEADER.size}")
    power = np.fromfile(path, dtype="<f4", count=dim0 * dim1,
                        offset=_MAP_HEADER.size).reshape(dim0, dim1).astype(float)
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
    pixels = pixels.astype(">u2")
    rows, cols = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n65535\n".encode("ascii"))
        fh.write(pixels.tobytes())


def write_detections_json(detections, path) -> None:
    records = [
        {
            "range_m": d.range_m,
            "velocity_mps": d.velocity_mps,
            "azimuth_deg": d.azimuth_deg,
            "power_db": d.power_db,
            "range_bin": d.range_bin,
            "doppler_bin_a": d.doppler_bin_a,
            "doppler_bin_b": d.doppler_bin_b,
        }
        for d in detections
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"detections": records}, fh, indent=2)


def write_calibration_json(cal: CalibrationVector, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cal.to_dict(), fh, indent=2)


def read_calibration_json(path) -> CalibrationVector:
    with open(path, "r", encoding="utf-8") as fh:
        return CalibrationVector.from_dict(json.load(fh))

"""Back half of the receive chain: boresight calibration, virtual-array
snapshot assembly, FFT angle spectra and range-azimuth map generation in
polar and Cartesian coordinates."""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .config import (
    _SCRATCH_BYTES,
    ArrayGeometry,
    InvalidParameterError,
    VirtualArray,
    _check_keys,
    _from_json,
    _is_number,
    _require,
    range_resolution,
)
from .dsp import RangeDopplerCube, noncoherent_integrate, range_doppler_map, tdm_demux
from .simulate import _MAX_AMPLITUDE, DataCube
from .unfold import VirtualSnapshot, migration_rotation

FLOOR_DB = -120.0

# A calibration reference must stand this far above the median range profile.
_CAL_MIN_SNR_DB = 20.0

# Bird's-eye-view grid of polar_to_cartesian: the centres of 500 x 500
# cells of 0.3 m, x across boresight in [-75, 75) m and y along it in
# [0, 150) m, with a 70-degree field of view.
_BEV_CELL_M = 0.3
_BEV_X_M = -75.0 + (np.arange(500) + 0.5) * _BEV_CELL_M
_BEV_Y_M = (np.arange(500) + 0.5) * _BEV_CELL_M
_BEV_FOV_DEG = 70.0
# Held over each _bev_lookup call, so two frame threads build a new layout's lookup once.
_BEV_LOCK = threading.Lock()

# Angle FFT length: bins uniform in sin(azimuth) over [-1, 1).
ANGLE_GRID_SIZE = 256

# Doppler bins per range bin that the map beamforms: the strongest by NCI power.
_MAP_DOPPLER_BINS = 16


class CalibrationError(RuntimeError):
    """Calibration data does not contain a usable reference reflector."""


@dataclass
class CalibrationVector:
    """Per-(tx, rx) complex correction gains from a boresight reference,
    measured on the array ``geometry``."""

    gains: np.ndarray
    reference_range_m: float
    reference_azimuth_deg: float
    geometry: ArrayGeometry

    def __post_init__(self) -> None:
        self.gains = np.asarray(self.gains, dtype=np.complex128)
        _require(self.gains.ndim == 2, "calibration gains must be a TX x RX matrix")
        # A channel is divided by its gain in complex64: a scene's level limit holds.
        magnitudes = np.abs(self.gains)
        _require(np.all((magnitudes >= 1.0 / _MAX_AMPLITUDE) & (magnitudes <= _MAX_AMPLITUDE)),
                 f"calibration gains must be finite and non-zero, with magnitudes in "
                 f"[{1.0 / _MAX_AMPLITUDE:.3g}, {_MAX_AMPLITUDE:.3g}]")
        ref = (self.reference_range_m, self.reference_azimuth_deg)
        _require(all(map(_is_number, ref)), f"calibration reference {ref} must be finite numbers")
        self.geometry.check_shape(*self.gains.shape)

    def to_dict(self) -> dict:
        return {
            "reference": {"range_m": self.reference_range_m,
                          "azimuth_deg": self.reference_azimuth_deg},
            "geometry": self.geometry.to_dict(),
            "gains": [[float(g.real), float(g.imag)] for g in self.gains.ravel()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationVector":
        _check_keys("calibration", data, ("gains", "geometry", "reference"), ("gains", "geometry"))
        geometry = ArrayGeometry.from_dict(data["geometry"])
        shape = (len(geometry.tx_positions), len(geometry.rx_positions))
        try:
            gains = np.array([complex(re, im) for re, im in data["gains"]])
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(f"calibration gain is not an [re, im] pair: {exc}") from None
        _require(gains.size == shape[0] * shape[1],
                 f"calibration lists {gains.size} gains for a {shape} array")
        ref = data.get("reference", {})
        _check_keys("calibration reference", ref, ("range_m", "azimuth_deg"))
        return cls(gains.reshape(shape), ref.get("range_m", 0.0), ref.get("azimuth_deg", 0.0),
                   geometry)

    from_json = classmethod(_from_json)


def steering_vector(geometry: ArrayGeometry, azimuth_deg: float) -> np.ndarray:
    """Ideal (n_tx, n_rx) response of a unit target at the given azimuth."""
    u = np.sin(np.radians(azimuth_deg))
    tx = np.exp(1j * np.pi * np.asarray(geometry.tx_positions) * u)
    rx = np.exp(1j * np.pi * np.asarray(geometry.rx_positions) * u)
    return tx[:, None] * rx[None, :]


def estimate_calibration(cube: DataCube, truth_range_m: float,
                         truth_azimuth_deg: float) -> CalibrationVector:
    """Derive correction gains, for the array that recorded ``cube``, from its
    recording of a single static corner reflector at a known range/azimuth.

    The reflector's range bin is located on the channel-averaged spectrum,
    the per-(tx, rx) response there is divided by the ideal steering
    response of the truth angle, and the result is normalized so the first
    element is 1+0j.
    """
    _require(_is_number(truth_range_m), f"reference range must be finite, got {truth_range_m!r}")
    _require(_is_number(truth_azimuth_deg) and -90.0 < truth_azimuth_deg < 90.0,
             f"reference azimuth must lie in (-90, 90) degrees, got {truth_azimuth_deg!r}")
    rd = range_doppler_map(tdm_demux(cube, cube.plan), "rect")
    profile = noncoherent_integrate(rd).sum(axis=0)

    peak_bin = int(np.argmax(profile))
    keep = np.ones(profile.size, dtype=bool)
    lo, hi = max(peak_bin - 4, 0), min(peak_bin + 5, profile.size)
    keep[lo:hi] = False
    floor = float(np.median(profile[keep]))
    snr_db = np.inf if floor == 0 else 10.0 * np.log10(profile[peak_bin] / floor)
    if snr_db < _CAL_MIN_SNR_DB:
        raise CalibrationError(
            f"reference peak SNR {snr_db:.1f} dB below the {_CAL_MIN_SNR_DB:.1f} dB threshold")

    expected_bin = int(round(truth_range_m / range_resolution(cube.params)))
    if abs(peak_bin - expected_bin) > 2:
        raise CalibrationError(
            f"dominant return at bin {peak_bin}, expected bin {expected_bin} "
            f"for the stated {truth_range_m} m reference")

    # The reflector is static, so its response sits in the zero-Doppler bin.
    response = rd.values[:, :, rd.n_doppler // 2, peak_bin]
    gains = response / steering_vector(cube.geometry, truth_azimuth_deg)
    gains = gains / gains[0, 0]
    return CalibrationVector(gains=gains, reference_range_m=truth_range_m,
                             reference_azimuth_deg=truth_azimuth_deg, geometry=cube.geometry)


def apply_calibration(rd: RangeDopplerCube, cal: CalibrationVector) -> RangeDopplerCube:
    """Divide each (tx, rx) channel of the cube by its calibration gain, in
    place (a multiply by 1/gain in the cube's precision); returns ``rd``."""
    cal.geometry.check_shape(*rd.values.shape[:2])
    rd.values *= (1.0 / cal.gains).astype(rd.values.dtype)[:, :, None, None]
    return rd


def assemble_snapshot(rd: RangeDopplerCube, cell: tuple,
                      varray: VirtualArray) -> VirtualSnapshot:
    """Extract the complex value of every (tx, rx) source at one
    (range_bin, doppler_bin) cell, ordered by virtual position."""
    range_bin, doppler_bin = cell
    varray.check_shape(*rd.values.shape[:2])
    if not (0 <= range_bin < rd.n_range and 0 <= doppler_bin < rd.n_doppler):
        raise InvalidParameterError(f"cell {cell} outside the {rd.values.shape} cube")
    return VirtualSnapshot(rd.values[varray.source_tx, varray.source_rx, doppler_bin, range_bin],
                           varray)


def collapse_snapshot(snapshot: VirtualSnapshot):
    """Average co-located sources, each weighted source added onto its slot
    in TX order: returns (unique positions, mean values)."""
    varray = snapshot.varray
    tx, rx = varray.source_tx, varray.source_rx
    slots = varray.position[tx, rx]
    means = np.zeros(slots[-1] + 1, dtype=np.complex128)
    np.add.at(means, slots, varray.weight[tx, rx] * snapshot.values)
    positions = np.asarray(varray.virtual_positions)
    return positions, means[positions]


@dataclass
class AngleSpectrum:
    power_db: np.ndarray
    sin_axis: np.ndarray
    azimuth_deg: np.ndarray

    @property
    def peak_azimuth_deg(self) -> float:
        return float(self.azimuth_deg[int(np.argmax(self.power_db))])


def _to_db(power: np.ndarray) -> np.ndarray:
    return 10.0 * np.log10(np.maximum(power, 10.0 ** (FLOOR_DB / 10.0)))


def _check_aperture(n_slots: int) -> None:
    _require(n_slots <= ANGLE_GRID_SIZE,
             f"{ANGLE_GRID_SIZE}-bin angle grid smaller than the {n_slots}-slot aperture")


def angle_spectrum(positions: np.ndarray, values: np.ndarray) -> AngleSpectrum:
    """Zero-padded spatial FFT over the half-wavelength ULA grid, with
    ``ANGLE_GRID_SIZE`` bins uniform in sin(azimuth) over [-1, 1); gaps in
    the ULA are zero-filled.  Positions are non-negative slot indices, one
    per value."""
    positions = np.asarray(positions, dtype=np.intp)
    # A message is built only on refusal: printing `positions` costs 4x the spectrum.
    if not (positions.size > 0 and positions.min() >= 0):
        raise InvalidParameterError(
            f"angle spectrum needs non-negative slot positions, got {positions}")
    if np.shape(values) != positions.shape:
        raise InvalidParameterError(f"{np.shape(values)} values for {positions.shape} positions")
    dense = np.zeros(int(positions.max()) + 1, dtype=np.complex128)
    dense[positions] = values
    _check_aperture(dense.size)
    power_db = _to_db(np.fft.fftshift(np.abs(scipy.fft.fft(dense, n=ANGLE_GRID_SIZE)) ** 2))
    sin_axis = 2.0 * (np.arange(ANGLE_GRID_SIZE) - ANGLE_GRID_SIZE // 2) / ANGLE_GRID_SIZE
    return AngleSpectrum(power_db=power_db, sin_axis=sin_axis,
                         azimuth_deg=np.degrees(np.arcsin(sin_axis)))


@dataclass
class RangeAzimuthMap:
    """dB power grid, polar over (range bin, sin-azimuth bin) or Cartesian
    over (x cell, y cell).  ``axisN_origin`` is the coordinate of index 0
    along axis N; bins step by ``axisN_bin_width``."""

    power_db: np.ndarray
    kind: str
    axis0_bin_width: float
    axis0_origin: float
    axis1_bin_width: float
    axis1_origin: float

    def axis0(self) -> np.ndarray:
        return self.axis0_origin + np.arange(self.power_db.shape[0]) * self.axis0_bin_width

    def axis1(self) -> np.ndarray:
        return self.axis1_origin + np.arange(self.power_db.shape[1]) * self.axis1_bin_width


def range_azimuth_map(rd: RangeDopplerCube, varray: VirtualArray, power: np.ndarray,
                      velocities: np.ndarray | None = None) -> RangeAzimuthMap:
    """Polar range-azimuth power map of one frame.

    Per range bin, only the 16 (``_MAP_DOPPLER_BINS``) Doppler bins that the NCI
    map ``power`` ranks strongest are beamformed onto the virtual ULA, each at
    its velocity (``velocities``, else the bin center's); a cell keeps the
    strongest. Cells near the peak equal the all-bin maximum; noise cells read lower.
    Half the kept bins at a time, fewer where their spectra exceed ``_SCRATCH_BYTES``.
    """
    values = rd.values
    n_tx, n_rx, n_doppler, n_range = values.shape
    varray.check_shape(n_tx, n_rx)
    velocities = np.asarray(rd.velocity_axis if velocities is None else velocities,
                            dtype=float)
    if velocities.size != n_doppler:
        raise InvalidParameterError("need one velocity per Doppler bin")
    if np.shape(power) != (n_doppler, n_range):
        raise InvalidParameterError(
            f"NCI map {np.shape(power)} does not match the cube's {(n_doppler, n_range)} cells")

    # Per-(tx, rx, Doppler) factor: migration compensation times averaging weight.
    position = varray.position
    n_slots = int(position.max()) + 1
    _check_aperture(n_slots)
    scale = migration_rotation(velocities[None, :], np.arange(n_tx)[:, None],
                               rd.plan, rd.params.wavelength_m)[:, None, :]
    scale = (scale * varray.weight[:, :, None]).astype(values.dtype)

    # Per pass (at least two; angle spectra within _SCRATCH_BYTES), each TX adds its RX
    # rows (at distinct positions) onto the ULA grid, channels last for the FFT; the
    # in-place product keeps numpy's operand order, whose swap can change the last bit.
    kept = np.argsort(power, axis=0)[-_MAP_DOPPLER_BINS:]
    per_pass = max(1, _SCRATCH_BYTES // (n_range * ANGLE_GRID_SIZE * values.itemsize))
    peak = 0.0
    for ranks in np.array_split(kept, max(2, -(-len(kept) // per_pass))):
        cells = ranks * n_range + np.arange(n_range)
        grid = np.zeros((len(ranks), n_range, n_slots), dtype=values.dtype)
        for t in range(n_tx):
            rows = np.take(values[t].reshape(n_rx, -1), cells, axis=1)
            rows *= np.take(scale[t], ranks, axis=1)
            grid[:, :, position[t]] += rows.transpose(1, 2, 0)
        spectrum = scipy.fft.fft(grid, n=ANGLE_GRID_SIZE, axis=-1, overwrite_x=True)
        peak = np.maximum(peak, np.abs(spectrum).max(axis=0, initial=0))

    # Square |F| and shift once, after the max; dB in float64, so floor cells read FLOOR_DB.
    power_db = _to_db(np.fft.fftshift(peak.astype(float) ** 2, axes=1))
    return RangeAzimuthMap(
        power_db=power_db,
        kind="polar",
        axis0_bin_width=rd.range_bin_m,
        axis0_origin=0.0,
        axis1_bin_width=2.0 / ANGLE_GRID_SIZE,
        axis1_origin=-1.0,
    )


@functools.lru_cache(maxsize=8)
def _bev_lookup(shape: tuple, widths: tuple, origins: tuple) -> tuple:
    """Where the bird's-eye-view grid samples a polar map of this layout:
    the mask of the grid cells inside the field of view and the map's
    extent, for each such cell the flat index of its lower-left neighbour in
    the edge-padded map, and its bilinear fractions along range and sin
    azimuth.  The arrays are shared by every call, so they are read-only."""
    n_range, n_sin = shape
    grid_x, grid_y = np.meshgrid(_BEV_X_M, _BEV_Y_M, indexing="ij")
    radius = np.hypot(grid_x, grid_y)
    sin_az = np.divide(grid_x, radius, out=np.zeros_like(grid_x), where=radius > 0)
    range_idx = (radius - origins[0]) / widths[0]
    sin_idx = (sin_az - origins[1]) / widths[1]
    outside = (range_idx > n_range - 1) | (sin_idx < 0) | (sin_idx > n_sin - 1)
    azimuth = np.degrees(np.arctan2(grid_x, grid_y))
    inside = ~(outside | (np.abs(azimuth) > _BEV_FOV_DEG / 2.0))
    range_idx, sin_idx = range_idx[inside], sin_idx[inside]
    r0 = np.clip(np.floor(range_idx), 0, n_range - 1).astype(np.int32)
    s0 = np.clip(np.floor(sin_idx), 0, n_sin - 1).astype(np.int32)
    lookup = (inside, r0 * (n_sin + 1) + s0, range_idx - r0, sin_idx - s0)
    for array in lookup:
        array.flags.writeable = False
    return lookup


def polar_to_cartesian(pmap: RangeAzimuthMap) -> RangeAzimuthMap:
    """Resample a polar map onto the fixed bird's-eye-view grid, bilinear in
    (range, sin azimuth); cells outside the field of view or the range
    extent are set to the floor."""
    if pmap.kind != "polar":
        raise InvalidParameterError("input map must be polar")
    with _BEV_LOCK:
        inside, corner, fr, fs = _bev_lookup(pmap.power_db.shape,
                                             (pmap.axis0_bin_width, pmap.axis1_bin_width),
                                             (pmap.axis0_origin, pmap.axis1_origin))

    # Bilinear, its products and sum in the order of scipy.ndimage's order-1
    # map_coordinates (equal bit for bit); the padding gets only zero weight.
    padded = np.pad(pmap.power_db, ((0, 1), (0, 1)), mode="edge").ravel()
    row = pmap.power_db.shape[1] + 1
    sampled = np.full(inside.shape, FLOOR_DB)
    sampled[inside] = (padded[corner] * (1 - fr) * (1 - fs) + padded[corner + 1] * (1 - fr) * fs
                       + padded[corner + row] * fr * (1 - fs)
                       + padded[corner + row + 1] * fr * fs)

    return RangeAzimuthMap(
        power_db=sampled,
        kind="cartesian",
        axis0_bin_width=_BEV_CELL_M,
        axis0_origin=float(_BEV_X_M[0]),
        axis1_bin_width=_BEV_CELL_M,
        axis1_origin=float(_BEV_Y_M[0]),
    )

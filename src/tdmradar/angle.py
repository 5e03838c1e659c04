"""Back half of the receive chain: boresight calibration, virtual-array
snapshot assembly, FFT angle spectra and range-azimuth map generation in
polar and Cartesian coordinates."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.fft
from scipy.ndimage import map_coordinates

from .config import (
    ArrayGeometry,
    InvalidParameterError,
    VirtualArray,
    _averaging_matrix,
    _check_keys,
    _is_number,
    _require,
    range_resolution,
)
from .dsp import RangeDopplerCube, noncoherent_integrate, range_doppler_map, tdm_demux
from .simulate import DataCube
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

# Angle FFT length: bins uniform in sin(azimuth) over [-1, 1).
ANGLE_GRID_SIZE = 256

# Doppler bins per step of the map loop; bounds the per-step temporaries.
_DOPPLER_BLOCK = 8


class CalibrationError(RuntimeError):
    """Calibration data does not contain a usable reference reflector."""


@dataclass
class CalibrationVector:
    """Per-(tx, rx) complex correction gains from a boresight reference."""

    gains: np.ndarray
    reference_range_m: float
    reference_azimuth_deg: float

    def __post_init__(self) -> None:
        self.gains = np.asarray(self.gains, dtype=np.complex128)
        _require(self.gains.ndim == 2, "calibration gains must be a (n_tx, n_rx) matrix")
        _require(not np.any(self.gains == 0) and np.isfinite(self.gains).all(),
                 "calibration gains must be finite and non-zero")
        ref = (self.reference_range_m, self.reference_azimuth_deg)
        _require(all(map(_is_number, ref)), f"calibration reference {ref} must be finite numbers")

    def check_shape(self, n_tx: int, n_rx: int) -> None:
        """Raise unless the gains cover exactly an ``n_tx`` x ``n_rx`` array."""
        _require(self.gains.shape == (n_tx, n_rx),
                 f"calibration {self.gains.shape} does not match the {(n_tx, n_rx)} array")

    def to_dict(self) -> dict:
        return {
            "reference": {"range_m": self.reference_range_m,
                          "azimuth_deg": self.reference_azimuth_deg},
            "n_tx": self.gains.shape[0],
            "n_rx": self.gains.shape[1],
            "gains": [[float(g.real), float(g.imag)] for g in self.gains.ravel()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationVector":
        _check_keys("calibration", data, ("gains", "n_tx", "n_rx", "reference"),
                    ("gains", "n_tx", "n_rx"))
        try:
            gains = np.array([complex(re, im) for re, im in data["gains"]])
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(f"calibration gain is not an [re, im] pair: {exc}") from None
        shape = (data["n_tx"], data["n_rx"])
        if not all(_is_number(n, integral=True) and n > 0 for n in shape):
            raise InvalidParameterError(f"calibration n_tx, n_rx {shape} must be positive integers")
        _require(gains.size == shape[0] * shape[1],
                 f"calibration lists {gains.size} gains for a {shape} array")
        ref = data.get("reference", {})
        _check_keys("calibration reference", ref, ("range_m", "azimuth_deg"))
        return cls(gains.reshape(shape), ref.get("range_m", 0.0), ref.get("azimuth_deg", 0.0))


def steering_vector(geometry: ArrayGeometry, azimuth_deg: float) -> np.ndarray:
    """Ideal (n_tx, n_rx) response of a unit target at the given azimuth."""
    u = np.sin(np.radians(azimuth_deg))
    tx = np.exp(1j * np.pi * np.asarray(geometry.tx_positions) * u)
    rx = np.exp(1j * np.pi * np.asarray(geometry.rx_positions) * u)
    return tx[:, None] * rx[None, :]


def estimate_calibration(cube: DataCube, truth_range_m: float, truth_azimuth_deg: float,
                         geometry: ArrayGeometry) -> CalibrationVector:
    """Derive correction gains from a recording of a single static corner
    reflector at a known range/azimuth.

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
    gains = response / steering_vector(geometry, truth_azimuth_deg)
    gains = gains / gains[0, 0]
    return CalibrationVector(gains=gains, reference_range_m=truth_range_m,
                             reference_azimuth_deg=truth_azimuth_deg)


def apply_calibration(snapshot: VirtualSnapshot,
                      cal: CalibrationVector) -> VirtualSnapshot:
    """Divide each snapshot source by its channel's calibration gain."""
    cal.check_shape(int(snapshot.source_tx.max()) + 1, int(snapshot.source_rx.max()) + 1)
    corrected = snapshot.values / cal.gains[snapshot.source_tx, snapshot.source_rx]
    return replace(snapshot, values=corrected)


def assemble_snapshot(rd: RangeDopplerCube, cell: tuple,
                      varray: VirtualArray) -> VirtualSnapshot:
    """Extract the complex value of every (tx, rx) source at one
    (range_bin, doppler_bin) cell, ordered by virtual position."""
    range_bin, doppler_bin = cell
    if not (0 <= range_bin < rd.n_range and 0 <= doppler_bin < rd.n_doppler):
        raise InvalidParameterError(f"cell {cell} outside the {rd.values.shape} cube")
    tx, rx, pos = varray.source_table()
    values = rd.values[tx, rx, doppler_bin, range_bin]
    return VirtualSnapshot(values=values, source_tx=tx, source_rx=rx,
                           source_position=pos, cell=(int(range_bin), int(doppler_bin)),
                           frame_index=rd.plan.frame_index)


def collapse_snapshot(snapshot: VirtualSnapshot):
    """Average co-located sources: returns (unique positions, mean values)."""
    positions, inverse = np.unique(snapshot.source_position, return_inverse=True)
    return positions, _averaging_matrix(inverse, positions.size) @ snapshot.values


@dataclass
class AngleSpectrum:
    power_db: np.ndarray
    sin_axis: np.ndarray
    azimuth_deg: np.ndarray

    @property
    def peak_azimuth_deg(self) -> float:
        return float(self.azimuth_deg[int(np.argmax(self.power_db))])


def _angle_power(dense: np.ndarray, grid_size: int, axis: int = 0) -> np.ndarray:
    """|FFT|^2 along ``axis``, zero-padded to ``grid_size``; bins unshifted."""
    if grid_size < dense.shape[axis]:
        raise InvalidParameterError(
            f"grid_size {grid_size} smaller than the {dense.shape[axis]}-slot aperture")
    return np.abs(scipy.fft.fft(dense, n=grid_size, axis=axis)) ** 2


def _to_db(power: np.ndarray) -> np.ndarray:
    return 10.0 * np.log10(np.maximum(power, 10.0 ** (FLOOR_DB / 10.0)))


def angle_spectrum(positions: np.ndarray, values: np.ndarray,
                   grid_size: int = ANGLE_GRID_SIZE) -> AngleSpectrum:
    """Zero-padded spatial FFT over the half-wavelength ULA grid, with bins
    uniform in sin(azimuth) over [-1, 1); gaps in the ULA are zero-filled."""
    positions = np.asarray(positions, dtype=np.intp)
    dense = np.zeros(int(positions.max()) + 1, dtype=np.complex128)
    dense[positions] = values
    power_db = _to_db(np.fft.fftshift(_angle_power(dense, grid_size)))
    sin_axis = 2.0 * (np.arange(grid_size) - grid_size // 2) / grid_size
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


def range_azimuth_map(rd: RangeDopplerCube, varray: VirtualArray,
                      cal: CalibrationVector | None = None,
                      velocities: np.ndarray | None = None) -> RangeAzimuthMap:
    """Polar range-azimuth power map of one frame.

    For every Doppler bin the per-channel responses are calibrated,
    migration-compensated with that bin's velocity (resolved if available,
    otherwise the folded bin-center velocity), collapsed onto the virtual
    ULA and transformed to an angle spectrum; each (range, azimuth) cell
    keeps its strongest Doppler bin.
    """
    values = rd.values
    n_tx, n_rx, n_doppler, n_range = values.shape
    if cal is not None:
        cal.check_shape(n_tx, n_rx)
    velocities = np.asarray(rd.velocity_axis if velocities is None else velocities,
                            dtype=float)
    if velocities.size != n_doppler:
        raise InvalidParameterError("need one velocity per Doppler bin")

    # Averages co-located channels onto the zero-filled ULA grid, with the
    # columns put in the cube's tx * n_rx + rx channel order.
    tx, rx, pos = varray.source_table()
    collapse = _averaging_matrix(pos, int(pos.max()) + 1)[:, np.argsort(tx * n_rx + rx)]
    collapse = collapse.astype(values.dtype)

    # Per-(tx, rx, Doppler) factor: migration compensation, divided by the
    # channel gain when calibrating.
    scale = migration_rotation(velocities[None, :], np.arange(n_tx)[:, None],
                               rd.plan, rd.params.wavelength_m)[:, None, :]
    if cal is not None:
        scale = scale / cal.gains[:, :, None]
    scale = np.broadcast_to(scale, (n_tx, n_rx, n_doppler)).astype(values.dtype)

    total = 0.0
    for start in range(0, n_doppler, _DOPPLER_BLOCK):
        stop = min(start + _DOPPLER_BLOCK, n_doppler)
        chunk = values[:, :, start:stop, :] * scale[:, :, start:stop, None]
        flat = chunk.transpose(2, 0, 1, 3).reshape(stop - start, n_tx * n_rx, n_range)
        power = _angle_power(collapse @ flat, ANGLE_GRID_SIZE, axis=1)
        total = np.maximum(total, power.max(axis=0))

    # Shift once, after the Doppler reduction; dB in float64 whatever the
    # cube's precision, so floor cells read FLOOR_DB.
    power_db = _to_db(np.fft.fftshift(total.astype(float), axes=0))
    return RangeAzimuthMap(
        power_db=power_db.T,
        kind="polar",
        axis0_bin_width=rd.range_bin_m,
        axis0_origin=0.0,
        axis1_bin_width=2.0 / ANGLE_GRID_SIZE,
        axis1_origin=-1.0,
    )


def polar_to_cartesian(pmap: RangeAzimuthMap) -> RangeAzimuthMap:
    """Resample a polar map onto the fixed bird's-eye-view grid, bilinear in
    (range, sin azimuth); cells outside the field of view or the range
    extent are set to the floor."""
    if pmap.kind != "polar":
        raise InvalidParameterError("input map must be polar")

    grid_x, grid_y = np.meshgrid(_BEV_X_M, _BEV_Y_M, indexing="ij")

    radius = np.hypot(grid_x, grid_y)
    sin_az = np.divide(grid_x, radius, out=np.zeros_like(grid_x), where=radius > 0)
    range_idx = radius / pmap.axis0_bin_width
    sin_idx = (sin_az - pmap.axis1_origin) / pmap.axis1_bin_width

    sampled = map_coordinates(pmap.power_db, [range_idx, sin_idx],
                              order=1, mode="constant", cval=FLOOR_DB)
    azimuth = np.degrees(np.arctan2(grid_x, grid_y))
    sampled[np.abs(azimuth) > _BEV_FOV_DEG / 2.0] = FLOOR_DB

    return RangeAzimuthMap(
        power_db=sampled,
        kind="cartesian",
        axis0_bin_width=_BEV_CELL_M,
        axis0_origin=float(_BEV_X_M[0]),
        axis1_bin_width=_BEV_CELL_M,
        axis1_origin=float(_BEV_Y_M[0]),
    )

"""Deterministic front half of the receive chain: TDM demultiplexing,
windowed range/Doppler FFTs, noncoherent channel integration and 2-D
cell-averaging CFAR."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy import ndimage
from scipy.signal import get_window

from .config import (
    FramePlan,
    InvalidParameterError,
    RadarParams,
    folded_vmax,
    range_resolution,
)
from .simulate import DataCube


@dataclass
class TxSubCubes:
    """Demultiplexed per-TX chirp stacks.  ``values`` is indexed
    (tx, rx, chirp-of-this-tx, fast time); TX k fires k slots
    (``k * plan.slot_interval_s``) into each revisit interval."""

    values: np.ndarray
    plan: FramePlan
    params: RadarParams


def tdm_demux(cube: DataCube, plan: FramePlan) -> TxSubCubes:
    """Split a raw cube into one chirp stack per TX, order preserved.  Only
    the round-robin schedule that ``build_frame_plan`` makes is accepted."""
    params = cube.params
    order = np.asarray(plan.tx_order)
    if cube.samples.shape[1] != order.size:
        raise InvalidParameterError(
            f"cube has {cube.samples.shape[1]} chirps but plan schedules {order.size}")
    if not np.array_equal(order, np.tile(np.arange(params.n_tx),
                                         params.chirps_per_tx_per_frame)):
        raise InvalidParameterError("TX schedule is not round-robin")

    n_rx, _, n_fast = cube.samples.shape
    values = cube.samples.reshape(
        n_rx, params.chirps_per_tx_per_frame, params.n_tx, n_fast
    ).transpose(2, 0, 1, 3)
    return TxSubCubes(values=values, plan=plan, params=params)


@dataclass
class RangeDopplerCube:
    """Per-channel 2-D spectra indexed (tx, rx, doppler bin, range bin).
    Doppler is FFT-shifted so bin 0 corresponds to -vmax."""

    values: np.ndarray
    range_bin_m: float
    velocity_bin_mps: float
    folded_vmax_mps: float
    plan: FramePlan
    params: RadarParams

    @property
    def n_doppler(self) -> int:
        return self.values.shape[2]

    @property
    def n_range(self) -> int:
        return self.values.shape[3]

    @property
    def velocity_axis(self) -> np.ndarray:
        n = self.n_doppler
        return (np.arange(n) - n // 2) * self.velocity_bin_mps

    @property
    def range_axis(self) -> np.ndarray:
        return np.arange(self.n_range) * self.range_bin_m


def range_doppler_map(sub: TxSubCubes, window_fast: str = "hann",
                      window_slow: str = "hann") -> RangeDopplerCube:
    """Fast-time FFT then slow-time FFT over each per-TX stack, computed in
    the precision of ``sub.values`` (complex64 cubes stay complex64)."""
    params = sub.params
    n_fast = sub.values.shape[-1]
    n_slow = sub.values.shape[-2]
    wf = get_window(window_fast, n_fast, fftbins=True)
    ws = get_window(window_slow, n_slow, fftbins=True)

    # Both windows are applied up front (the FFTs are linear, so windowing
    # slow time before the fast-time FFT is equivalent) to save a full-cube
    # multiply; overwrite_x recycles the intermediate buffer.
    x = sub.values * (ws[:, None] * wf[None, :]).astype(sub.values.real.dtype)
    x = scipy.fft.fft(x, axis=-1, overwrite_x=True)
    x = scipy.fft.fft(x, axis=-2, overwrite_x=True)
    x = np.fft.fftshift(x, axes=-2)

    vmax = folded_vmax(params, sub.plan.frame_index)
    return RangeDopplerCube(
        values=x,
        range_bin_m=range_resolution(params),
        velocity_bin_mps=params.wavelength_m / (2.0 * sub.plan.tx_revisit_interval_s * n_slow),
        folded_vmax_mps=vmax,
        plan=sub.plan,
        params=params,
    )


def noncoherent_integrate(rd: RangeDopplerCube) -> np.ndarray:
    """Sum of |value|^2 over all (tx, rx) channels -> (doppler, range)."""
    return np.sum(np.abs(rd.values) ** 2, axis=(0, 1))


@dataclass(frozen=True)
class CfarConfig:
    """CA-CFAR window sizes, one-sided, ordered (range, doppler)."""

    training: tuple = (8, 4)
    guard: tuple = (4, 2)
    pfa: float = 1e-4

    def __post_init__(self) -> None:
        if min(self.training) <= 0:
            raise InvalidParameterError("training cell counts must be positive")
        if min(self.guard) < 0:
            raise InvalidParameterError("guard cell counts must be non-negative")
        if not 0.0 < self.pfa < 1.0:
            raise InvalidParameterError("pfa must lie in (0, 1)")


@dataclass
class Detection:
    range_bin: int
    doppler_bin: int
    folded_velocity_mps: float
    power_db: float
    frame_index: int


def parabolic_offset(powers: np.ndarray) -> float:
    """Sub-bin peak offset from a 3-point quadratic fit to the dB values of
    three linear powers (left, center, right), clamped to half a bin."""
    left, center, right = 10.0 * np.log10(np.maximum(powers, 1e-300))
    denom = left - 2.0 * center + right
    if denom >= 0:
        return 0.0
    return float(np.clip(0.5 * (left - right) / denom, -0.5, 0.5))


def _box_sums(padded: np.ndarray, height: int, width: int) -> np.ndarray:
    """Sliding-window sums via a summed-area table (valid region)."""
    sat = np.pad(padded.cumsum(axis=0).cumsum(axis=1), ((1, 0), (1, 0)))
    return (sat[height:, width:] - sat[:-height, width:]
            - sat[height:, :-width] + sat[:-height, :-width])


def cfar_ca2d(power_map: np.ndarray, config: CfarConfig,
              velocity_axis: np.ndarray | None = None,
              frame_index: int = 0) -> list:
    """2-D cell-averaging CFAR on a (doppler, range) power map.

    Threshold per cell is alpha * mean(training ring) with
    alpha = N * (pfa^(-1/N) - 1) for the N training cells actually present:
    the Doppler axis wraps, the range axis is clamped so edge cells use a
    truncated ring with a locally recomputed alpha.  Cells over threshold
    are kept only if they are the maximum of their guard window.
    """
    power_map = np.asarray(power_map, dtype=float)
    n_dop, n_rng = power_map.shape
    tr_r, tr_d = config.training
    g_r, g_d = config.guard
    half_d, half_r = tr_d + g_d, tr_r + g_r
    if 2 * half_d + 1 > n_dop or 2 * half_r + 1 > n_rng:
        raise InvalidParameterError("CFAR window larger than the power map")

    def ring_sums(arr: np.ndarray) -> np.ndarray:
        padded = np.pad(arr, ((half_d, half_d), (0, 0)), mode="wrap")
        padded = np.pad(padded, ((0, 0), (half_r, half_r)), mode="constant")
        outer = _box_sums(padded, 2 * half_d + 1, 2 * half_r + 1)
        if g_d or g_r:
            pad_in = padded[half_d - g_d:padded.shape[0] - (half_d - g_d),
                            half_r - g_r:padded.shape[1] - (half_r - g_r)]
            inner = _box_sums(pad_in, 2 * g_d + 1, 2 * g_r + 1)
        else:
            inner = arr
        return outer - inner

    sums = ring_sums(power_map)
    counts = np.maximum(ring_sums(np.ones_like(power_map)), 1.0)
    alpha = counts * (config.pfa ** (-1.0 / counts) - 1.0)
    # Clamp: SAT round-off can leave a faint negative threshold on all-zero
    # neighborhoods of noiseless maps.
    threshold = np.maximum(alpha * sums / counts, 0.0)

    hits = (power_map > threshold) & (power_map > 0.0)
    local_max = ndimage.maximum_filter(
        power_map, size=(2 * g_d + 1, 2 * g_r + 1),
        mode=("wrap", "constant"), cval=0.0)
    hits &= power_map >= local_max

    detections = []
    for d_bin, r_bin in np.argwhere(hits):
        vel = 0.0
        if velocity_axis is not None:
            # refine the folded velocity below bin quantization (Doppler wraps)
            around = power_map[[(d_bin - 1) % n_dop, d_bin, (d_bin + 1) % n_dop], r_bin]
            step = velocity_axis[1] - velocity_axis[0] if velocity_axis.size > 1 else 0.0
            vel = float(velocity_axis[d_bin] + parabolic_offset(around) * step)
        detections.append(Detection(
            range_bin=int(r_bin),
            doppler_bin=int(d_bin),
            folded_velocity_mps=vel,
            power_db=float(10.0 * np.log10(power_map[d_bin, r_bin])),
            frame_index=frame_index,
        ))
    return detections

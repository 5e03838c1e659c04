"""Deterministic front half of the receive chain: TDM demultiplexing,
windowed range/Doppler FFTs, noncoherent channel integration and 2-D
cell-averaging CFAR."""

from __future__ import annotations

import contextlib
import functools
import mmap
import os
from dataclasses import dataclass

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view

from .config import (
    _SCRATCH_BYTES,
    FramePlan,
    RadarParams,
    _is_number,
    _require,
    folded_vmax,
    range_resolution,
)
from .simulate import DataCube

byte_bounds = getattr(np.lib, "array_utils", np).byte_bounds  # numpy < 2.0: np.byte_bounds


@dataclass
class TxSubCubes:
    """Demultiplexed per-TX chirp stacks.  ``values`` is indexed
    (tx, rx, chirp-of-this-tx, fast time); TX k fires k slots
    (``k * plan.slot_interval_s``) into each revisit interval."""

    values: np.ndarray
    plan: FramePlan
    params: RadarParams


def tdm_demux(cube: DataCube, plan: FramePlan) -> TxSubCubes:
    """Split a raw cube into one chirp stack per TX of the plan's round-robin
    schedule, order preserved."""
    params = cube.params
    # The cube's own plan already matches its samples; another frame's plan
    # would give the sub-cubes the wrong PRI and so wrong velocities.
    _require(plan == cube.plan, f"plan schedules {plan}, but the cube holds {cube.plan}")

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


def _window(name: str, n: int) -> np.ndarray:
    """Periodic Hann or rect window, equal bit for bit to scipy's ``get_window(name, n)``."""
    _require(name in ("hann", "rect"), f"window {name!r} is not 'hann' or 'rect'")
    if name == "rect" or n <= 1:  # scipy's one-point Hann window is [1.0]
        return np.ones(n)
    return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)[:-1])


def _release(values: np.ndarray, pagemap) -> None:
    """Drop the pages wholly inside ``values`` when it views a file ``mmap``, as
    ``read_cube``'s samples do, unless ``/proc/self/pagemap``, read through the
    file ``pagemap()`` returns, shows one of them privately written (present or
    swapped, and not a file page): clean pages map the file in again when read.
    In-memory arrays, and systems without that file, keep theirs."""
    source = values
    while isinstance(source, np.ndarray):
        source = source.base
    source = getattr(source, "obj", source)  # np.frombuffer's base is a memoryview
    low, high = byte_bounds(values)
    first, end = -(-low // mmap.PAGESIZE), high // mmap.PAGESIZE
    if not isinstance(source, mmap.mmap) or end <= first:
        return
    try:
        flags = np.frombuffer(os.pread(pagemap().fileno(), 8 * (end - first), 8 * first), "<u8")
    except OSError:
        return
    if not ((flags >> 62 != 0) & (flags >> 61 & 1 == 0)).any():
        origin = byte_bounds(np.frombuffer(source, np.uint8))[0]
        source.madvise(mmap.MADV_DONTNEED, first * mmap.PAGESIZE - origin,
                       (end - first) * mmap.PAGESIZE)


def range_doppler_map(sub: TxSubCubes, window: str = "hann", *, one_sided: bool = False,
                      dtype=None) -> RangeDopplerCube:
    """Fast-time FFT then slow-time FFT over each per-TX stack, both under
    ``window``, computed in complex ``dtype`` (default: the precision of
    ``sub.values``, so complex64 cubes stay complex64).  ``one_sided`` keeps
    only the first ``n_fast // 2`` range bins, which are then all the Doppler
    FFT runs on.  The RX rows go in blocks of as many as fit in
    ``_SCRATCH_BYTES`` with their samples of every TX (at least one row);
    each TX's stack of a block goes through one scratch buffer, windowed and
    range-transformed in place, and then the block's samples are released
    when they are mapped from a cube file (``_release``), so a ``read_cube``
    cube stops holding RAM as it is transformed.  The Doppler FFT then runs
    once, in place, over the whole output.  The samples are rounded to
    ``dtype`` before the window multiply, as ``write_cube`` rounds them, so a
    complex128 cube transformed in complex64 gives the bits of its file copy."""
    params = sub.params
    n_tx, n_rx, n_slow, n_fast = sub.values.shape
    n_keep = n_fast // 2 if one_sided else n_fast
    dtype = np.result_type(sub.values, np.complex64) if dtype is None else np.dtype(dtype)
    _require(dtype.kind == "c", f"dtype {dtype} is not complex")
    wf = _window(window, n_fast)
    # Both windows are applied up front (the FFTs are linear).  The (-1)^n
    # factor moves Doppler bin 0 to -vmax, an fftshift that is exact because
    # the chirp count is a power of two.  The window is made complex (imaginary
    # part 0) once here, not cast again by the multiply on every TX block.
    ws = _window(window, n_slow) * (-1.0) ** np.arange(n_slow)
    w = (ws[:, None] * wf[None, :]).astype(dtype)
    rows = max(1, _SCRATCH_BYTES // (n_tx * w.nbytes))
    buf = np.empty((min(rows, n_rx), n_slow, n_fast), dtype=dtype)
    out = np.empty((n_tx, n_rx, n_slow, n_keep), dtype=dtype)
    # inf times the window's zero imaginary part is NaN; run_pipeline reports it
    with np.errstate(invalid="ignore"), contextlib.ExitStack() as files:
        pagemap = functools.cache(lambda: files.enter_context(open("/proc/self/pagemap", "rb")))
        for r in range(0, n_rx, rows):
            for k in range(n_tx):
                block = buf[:n_rx - r]
                np.multiply(sub.values[k, r:r + rows], w, out=block, dtype=dtype,
                            casting="same_kind")
                out[k, r:r + rows] = scipy.fft.fft(block, axis=-1, overwrite_x=True)[..., :n_keep]
            _release(sub.values[:, r:r + rows], pagemap)
        out = scipy.fft.fft(out, axis=-2, overwrite_x=True)

    vmax = folded_vmax(params, sub.plan.frame_index)
    return RangeDopplerCube(
        values=out,
        range_bin_m=range_resolution(params),
        velocity_bin_mps=2.0 * vmax / n_slow,
        folded_vmax_mps=vmax,
        plan=sub.plan,
        params=params,
    )


def noncoherent_integrate(rd: RangeDopplerCube) -> np.ndarray:
    """Sum of |value|^2 over all (tx, rx) channels -> (doppler, range), as many
    TX as fit in ``_SCRATCH_BYTES`` at a time (at least one), each block's first
    channel taking the running sum, so channels add up in numpy's own order."""
    values = rd.values
    step = max(1, _SCRATCH_BYTES // (values[0].size * values.real.itemsize))
    buf = np.empty_like(values[:step], dtype=values.real.dtype)
    total = 0.0  # exact: adding 0 changes no square
    for k in range(0, len(values), step):
        block = np.abs(values[k:k + step], out=buf[:len(values) - k])
        block **= 2
        block[0, 0] += total
        total = block.sum(axis=(0, 1))
    return total


@dataclass(frozen=True)
class CfarConfig:
    """CA-CFAR window sizes, one-sided, ordered (range, doppler)."""

    training: tuple = (8, 4)
    guard: tuple = (4, 2)
    pfa: float = 1e-4

    def __post_init__(self) -> None:
        for name, least in (("training", 1), ("guard", 0)):
            cells = getattr(self, name)
            _require(isinstance(cells, (tuple, list)) and len(cells) == 2
                     and all(_is_number(n, integral=True) and n >= least for n in cells),
                     f"{name} must be a (range, doppler) pair of integers >= {least}, "
                     f"got {cells!r}")
            object.__setattr__(self, name, tuple(cells))
        _require(_is_number(self.pfa) and 0.0 < self.pfa < 1.0,
                 f"pfa must be a number in (0, 1), got {self.pfa!r}")


@dataclass
class Detection:
    range_bin: int
    doppler_bin: int
    folded_velocity_mps: float
    power_db: float
    frame_index: int
    range_offset: float  # sub-bin range peak offset in bins, 0.0 at the end bins


def parabolic_offset(powers: np.ndarray) -> float:
    """Sub-bin peak offset from a 3-point quadratic fit to the dB values of
    three linear powers (left, center, right), clamped to half a bin."""
    left, center, right = 10.0 * np.log10(np.maximum(powers, 1e-300))
    denom = left - 2.0 * center + right
    if denom >= 0:
        return 0.0
    return float(np.clip(0.5 * (left - right) / denom, -0.5, 0.5))


def _box_sums(sat: np.ndarray, offset: tuple, size: tuple, shape: tuple) -> np.ndarray:
    """Sums of the ``size`` boxes ``offset`` past each of ``shape`` cells, read
    from a summed-area table with a leading zero row and column."""
    (o_d, o_r), (h, w) = offset, size
    s = sat[o_d:o_d + shape[0] + h, o_r:o_r + shape[1] + w]
    return s[h:, w:] - s[:-h, w:] - s[h:, :-w] + s[:-h, :-w]


def cfar_ca2d(power_map: np.ndarray, config: CfarConfig,
              velocity_axis: np.ndarray | None = None,
              frame_index: int = 0) -> list:
    """2-D cell-averaging CFAR on a (doppler, range) power map.

    Threshold per cell is alpha * mean(training ring) with
    alpha = N * (pfa^(-1/N) - 1) for the N training cells actually present:
    the Doppler axis wraps, the range axis is clamped so edge cells use a
    truncated ring with a locally recomputed alpha.  Cells over threshold
    are kept only if they are the maximum of their guard window.  Each hit's
    range, and with ``velocity_axis`` its folded velocity, is refined below
    the bin on the float64 map.
    """
    power_map = np.asarray(power_map, dtype=float)
    n_dop, n_rng = power_map.shape
    tr_r, tr_d = config.training
    g_r, g_d = config.guard
    half_d, half_r = tr_d + g_d, tr_r + g_r
    _require(2 * half_d + 1 <= n_dop and 2 * half_r + 1 <= n_rng,
             "CFAR window larger than the power map")
    _require(velocity_axis is None or len(velocity_axis) == n_dop,
             "need one velocity per Doppler bin")

    # One padded copy serves every window: Doppler wraps, range is zero-padded.
    padded = np.pad(np.pad(power_map, ((half_d, half_d), (0, 0)), mode="wrap"),
                    ((0, 0), (half_r, half_r)))

    def ring_sums(arr: np.ndarray) -> np.ndarray:  # outer window minus guard box
        sat = np.pad(arr.cumsum(axis=0).cumsum(axis=1), ((1, 0), (1, 0)))
        return (_box_sums(sat, (0, 0), (2 * half_d + 1, 2 * half_r + 1), power_map.shape)
                - _box_sums(sat, (tr_d, tr_r), (2 * g_d + 1, 2 * g_r + 1), power_map.shape))

    sums = ring_sums(padded)
    # Each ring keeps its two cells at Doppler +-(training + guard): no count is 0.
    counts = ring_sums(np.pad(np.ones((padded.shape[0], n_rng)), ((0, 0), (half_r, half_r))))
    alpha = counts * (config.pfa ** (-1.0 / counts) - 1.0)
    # Clamp: SAT round-off can leave a faint negative threshold on all-zero
    # neighborhoods of noiseless maps.  A hit is then also above 0.
    threshold = np.maximum(alpha * sums / counts, 0.0)

    # Max over the guard window, one axis at a time, on the copy trimmed to the guard.
    local_max = padded[tr_d:padded.shape[0] - tr_d, tr_r:padded.shape[1] - tr_r]
    local_max = sliding_window_view(local_max, 2 * g_d + 1, axis=0).max(axis=-1)
    local_max = sliding_window_view(local_max, 2 * g_r + 1, axis=1).max(axis=-1)
    hits = (power_map > threshold) & (power_map >= local_max)

    detections = []
    for d_bin, r_bin in np.argwhere(hits):
        vel = 0.0
        if velocity_axis is not None:
            # refine the folded velocity below bin quantization (Doppler wraps)
            around = power_map[[(d_bin - 1) % n_dop, d_bin, (d_bin + 1) % n_dop], r_bin]
            step = velocity_axis[1] - velocity_axis[0]
            vel = float(velocity_axis[d_bin] + parabolic_offset(around) * step)
        offset = (parabolic_offset(power_map[d_bin, r_bin - 1:r_bin + 2])
                  if 0 < r_bin < n_rng - 1 else 0.0)
        detections.append(Detection(
            range_bin=int(r_bin),
            doppler_bin=int(d_bin),
            folded_velocity_mps=vel,
            power_db=float(10.0 * np.log10(power_map[d_bin, r_bin])),
            frame_index=frame_index,
            range_offset=offset,
        ))
    return detections

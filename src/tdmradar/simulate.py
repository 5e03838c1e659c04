"""Point-target scene simulator producing complex-baseband TDM MIMO data
cubes, the ground-truth oracle for the receive chain.

Signal model per target and chirp slot (stop-and-hop: range is updated at
each slot start ``t_s`` and frozen over the chirp's fast time ``t``):

    phase(t_s, t) = 2*pi * 2*f_c*R(t_s)/c
                  + 2*pi * (2*B*R(t_s)/(T*c)) * t
                  + pi * (pos_tx + pos_rx) * sin(azimuth)

with R(t_s) = range + v*t_s.  The carrier term with R(t_s) carries the
slow-time Doppler rotation (4*pi/lambda)*v*t_s, so the TDM phase migration
between TX slots emerges from the geometry of the schedule instead of being
injected.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, replace

import numpy as np

from .config import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    FramePlan,
    RadarParams,
    _check_fields,
    _from_dict,
    _from_json,
    _require,
    build_frame_plan,
)

_SLOT_BLOCK = 64        # slots per block: the chirp rows hold T * 64 * n_fast samples
_NOISE_BLOCK = 1 << 16  # noise samples per draw: a 512 KB float64 buffer
# A scene's levels (each target's amplitude, the noise set by snr_db) stay
# within half of float32's power range in dB, 192.7 dB of unity; the other half
# is headroom for the FFT and channel-sum gains of the complex64 chain.
_LEVEL_LIMIT_DB = 5.0 * float(np.log10(np.finfo(np.float32).max))
_MAX_AMPLITUDE = 10.0 ** (_LEVEL_LIMIT_DB / 20.0)


def _start_frame_b() -> None:
    """One executor for every pair: a fresh thread per pair can take a fresh
    malloc arena and hold on to its memory.  It starts its thread at the first
    pair; a forked child, which has no copy of that thread, gets a new one."""
    global _frame_b
    _frame_b = ThreadPoolExecutor(max_workers=1, thread_name_prefix="frame-b")


_start_frame_b()
os.register_at_fork(after_in_child=_start_frame_b)


def _frame_pair(fn_a, fn_b) -> tuple:
    """``(fn_a(), fn_b())``, with ``fn_b`` run on the frame-b worker thread while
    ``fn_a`` runs on this one.  Returns or raises only once ``fn_b`` is done, so
    an error in ``fn_a`` never leaves frame-b work running.  ``fn_b`` may not
    call ``_frame_pair``: the one worker would wait on itself."""
    future_b = _frame_b.submit(fn_b)
    try:
        result_a = fn_a()
    finally:
        wait([future_b])
    return result_a, future_b.result()


@dataclass(frozen=True)
class PointTarget:
    """Ideal point scatterer.  Positive velocity recedes from the radar."""

    range_m: float
    velocity_mps: float = 0.0
    azimuth_deg: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        _check_fields(self)
        _require(self.range_m > 0, "target range must be positive")
        _require(-90.0 < self.azimuth_deg < 90.0, "azimuth must lie in (-90, 90) degrees")
        _require(0 < self.amplitude <= _MAX_AMPLITUDE,
                 f"amplitude must lie in (0, {_MAX_AMPLITUDE:.3g}], got {self.amplitude!r}")


@dataclass(frozen=True)
class Scene:
    """Target list plus noise level.  ``snr_db`` is the post-range-FFT SNR of
    a unit-amplitude target; ``None`` means noiseless."""

    targets: tuple = ()
    snr_db: float | None = None
    rng_seed: int = 0

    def __post_init__(self) -> None:
        _check_fields(self)
        _require(self.rng_seed >= 0, f"rng_seed must be non-negative, got {self.rng_seed!r}")
        _require(self.snr_db is None or abs(self.snr_db) <= _LEVEL_LIMIT_DB,
                 f"snr_db must lie within +-{_LEVEL_LIMIT_DB:.1f} dB, got {self.snr_db!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "Scene":
        _require(isinstance(data, dict) and isinstance(data.get("targets", []), list),
                 "scene must be a JSON object with a list of targets")
        targets = tuple(_from_dict(PointTarget, t) for t in data.get("targets", []))
        return _from_dict(cls, {**data, "targets": targets})

    from_json = classmethod(_from_json)

    def to_dict(self) -> dict:
        return {**asdict(self), "targets": [asdict(t) for t in self.targets]}


@dataclass
class DataCube:
    """One frame of raw baseband samples, indexed (rx, chirp slot, fast time)."""

    samples: np.ndarray
    plan: FramePlan
    params: RadarParams
    geometry: ArrayGeometry  # the array that recorded the samples

    def __post_init__(self) -> None:
        self.geometry.check_shape(self.params.n_tx, self.params.n_rx)
        _require(self.plan == build_frame_plan(self.params, self.plan.frame_index),
                 f"{self.plan} is not frame {self.plan.frame_index}'s schedule under its params")
        expected = (self.params.n_rx, self.plan.chirp_count_total,
                    self.params.adc_samples_per_chirp)
        _require(self.samples.shape == expected,
                 f"cube shape {self.samples.shape} does not match plan {expected}")


def _noise(scene: Scene, params: RadarParams, frame_index: int):
    """``fill(out)``: write the next ``out.size`` values of frame ``frame_index``'s
    noise into the contiguous float64 ``out`` and return ``out``.  The noise is
    sigma/sqrt(2) times the draws of the frame's own stream, real parts first,
    then imaginary, in (rx, slot, fast) order; a noiseless scene's is +0.0."""
    if scene.snr_db is None:  # assigned, not scaled by 0: np.empty may hold NaN
        return lambda out: np.copyto(out, 0.0) or out
    # Counter-style seeding: each frame draws from its own reproducible stream.
    rng = np.random.default_rng([int(scene.rng_seed), int(frame_index)])
    # Post-range-FFT SNR for unit amplitude: amp^2 * N_fast / sigma^2.
    sigma = float(np.sqrt(params.adc_samples_per_chirp / 10.0 ** (scene.snr_db / 10.0)))
    scale = sigma / np.sqrt(2.0)
    return lambda out: np.multiply(rng.standard_normal(out=out), scale, out=out)


def _add_noise(cube: DataCube, scene: Scene) -> None:
    """Add the frame's noise in place through one reused buffer, in the draw order
    of ``normal(scale=sigma/sqrt(2), size=(2,) + shape)``: real parts, then imaginary."""
    fill = _noise(scene, cube.params, cube.plan.frame_index)
    buf, flat = np.empty(_NOISE_BLOCK), cube.samples.reshape(-1)
    for part in (flat.real, flat.imag):
        for i in range(0, part.size, _NOISE_BLOCK):
            part[i:i + _NOISE_BLOCK] += fill(buf[:part.size - i])


def _check_frame(scene: Scene, params: RadarParams, geometry: ArrayGeometry,
                 frame_index: int, start_time_s: float) -> FramePlan:
    """The plan of frame ``frame_index``, once the geometry matches ``params``,
    the frame's complex128 samples fit in the platform's ``sys.maxsize`` bytes,
    and every target stays inside (0, r_max) from the frame's start to its end."""
    geometry.check_shape(params.n_tx, params.n_rx)
    plan = build_frame_plan(params, frame_index)
    n_slots = plan.chirp_count_total
    n_samples = params.n_rx * n_slots * params.adc_samples_per_chirp
    _require(16 * n_samples <= sys.maxsize,
             f"a frame of {n_samples} samples exceeds {sys.maxsize} bytes as complex128")
    frame_end = start_time_s + (n_slots - 1) * plan.slot_interval_s + params.chirp_duration_s
    r_max = params.max_unambiguous_range_m
    for target in scene.targets:
        for t_edge in (start_time_s, frame_end):
            r_edge = target.range_m + target.velocity_mps * t_edge
            _require(0.0 < r_edge < r_max,
                     f"target at {target.range_m} m, {target.velocity_mps} m/s leaves "
                     f"(0, {r_max:.1f}) m during the frame and would alias")
    return plan


def _signal_sums(scene: Scene, params: RadarParams, plan: FramePlan,
                 geometry: ArrayGeometry, start_time_s: float):
    """Yield ``(rx, slots, sums)``: the scene's signal ``S`` on RX row ``rx``
    over the slot slice ``slots``, one block of slots after another.  Per
    block, each target's chirp rows (carrier, TX and beat phase) are built
    from two short exps; each RX row sums them, each times its (RX, target)
    gain, in target order into one scratch block, which the next step
    overwrites.  Elementwise products only: a BLAS call here would compete
    with the other frame's thread for the cores.  Yields nothing without
    targets."""
    if not scene.targets:
        return
    n_fast = params.adc_samples_per_chirp
    n_slots = plan.chirp_count_total
    slot_times = start_time_s + np.arange(n_slots) * plan.slot_interval_s
    # Fast-time sample f = n_lo * hi + lo: a chirp's phasor is the outer
    # product of n_fast / n_lo high-digit and n_lo low-digit phasors.
    n_lo = 1 << (n_fast.bit_length() // 2)
    fast_hi = np.arange(0, n_fast, n_lo) / params.sample_rate_hz
    fast_lo = np.arange(n_lo) / params.sample_rate_hz
    tx_pos = np.asarray(geometry.tx_positions, dtype=float)
    rx_pos = np.asarray(geometry.rx_positions, dtype=float)

    ranges, velocities, azimuths, amplitudes = np.array(
        [(t.range_m, t.velocity_mps, t.azimuth_deg, t.amplitude) for t in scene.targets]
    ).T[:, :, None]
    u = np.sin(np.radians(azimuths))                                          # (T, 1)
    tx_phase = np.pi * tx_pos[plan.tx_order] * u                              # (T, n_slots)
    rx_gain = (amplitudes * np.exp(1j * np.pi * rx_pos * u)).T.tolist()       # n_rx x T

    sums = np.empty((_SLOT_BLOCK, n_fast), dtype=np.complex128)
    scratch = np.empty_like(sums)
    for s0 in range(0, n_slots, _SLOT_BLOCK):
        s1 = min(s0 + _SLOT_BLOCK, n_slots)
        r_slot = ranges + velocities * slot_times[s0:s1]
        carrier_phase = 2.0 * np.pi * 2.0 * params.carrier_frequency_hz * r_slot / SPEED_OF_LIGHT
        beat_hz = 2.0 * params.bandwidth_hz * r_slot / (params.chirp_duration_s * SPEED_OF_LIGHT)
        high = np.exp(1j * ((carrier_phase + tx_phase[:, s0:s1])[..., None]
                            + 2.0 * np.pi * beat_hz[..., None] * fast_hi))
        low = np.exp(2j * np.pi * beat_hz[..., None] * fast_lo)
        rows = (high[..., None] * low[..., None, :]).reshape(len(u), s1 - s0, n_fast)
        acc, tmp = sums[:s1 - s0], scratch[:s1 - s0]
        for rx, gains in enumerate(rx_gain):
            np.multiply(rows[0], gains[0], out=acc)
            for row, g in zip(rows[1:], gains[1:]):
                acc += np.multiply(row, g, out=tmp)
            yield rx, slice(s0, s1), acc


def _add_signal(cube: DataCube, scene: Scene, start_time_s: float) -> None:
    """Add the scene's targets to the cube in place, one ``_signal_sums``
    block at a time.  So a sample is ``x + S`` with the same ``S`` whether or
    not the cube already holds noise ``x``."""
    for rx, slots, sums in _signal_sums(scene, cube.params, cube.plan, cube.geometry, start_time_s):
        cube.samples[rx, slots] += sums


def simulate_frame(scene: Scene, params: RadarParams, geometry: ArrayGeometry,
                   frame_index: int, start_time_s: float = 0.0) -> DataCube:
    """Synthesize one frame's targets and noise.  An even frame adds its
    signal, then its noise; an odd frame draws its noise first.  In a frame
    pair one frame's noise draw, which releases the GIL, then overlaps the
    other frame's GIL-bound per-target loop.  The order does not change the
    bits: a sample is signal plus noise either way, and IEEE addition
    commutes.  ``start_time_s`` keeps the target state continuous when
    frames are chained."""
    plan = _check_frame(scene, params, geometry, frame_index, start_time_s)
    shape = (params.n_rx, plan.chirp_count_total, params.adc_samples_per_chirp)
    frame = DataCube(np.zeros(shape, dtype=np.complex128), plan, params, geometry)
    if frame_index % 2:
        _add_noise(frame, scene)
        _add_signal(frame, scene, start_time_s)
    else:
        _add_signal(frame, scene, start_time_s)
        _add_noise(frame, scene)
    return frame


def _make_frame_pair(scene: Scene, params: RadarParams, geometry: ArrayGeometry, make):
    """``(make(0, 0.0), make(1, start_b))``, frame b on the frame-b worker
    thread and starting when frame a ends.  Both frames are checked first, so
    a target that leaves the range only during frame b costs no synthesis."""
    start_b = params.frame_duration_s(0)
    _check_frame(scene, params, geometry, 0, 0.0)
    _check_frame(scene, params, geometry, 1, start_b)
    return _frame_pair(lambda: make(0, 0.0), lambda: make(1, start_b))


def simulate_frame_pair(scene: Scene, params: RadarParams,
                        geometry: ArrayGeometry) -> tuple:
    """Two back-to-back frames with staggered PRIs (frame 0 then frame 1); each
    draws its own noise stream, so the result does not depend on the threads."""
    return _make_frame_pair(scene, params, geometry,
                            lambda *frame: simulate_frame(scene, params, geometry, *frame))


def inject_channel_errors(cube: DataCube, gains) -> DataCube:
    """Multiply every sample by the complex gain of its (active TX, RX) pair.
    ``gains`` is an (n_tx, n_rx) matrix, the layout of ``CalibrationVector``."""
    shape = (cube.params.n_tx, cube.params.n_rx)
    gains = np.asarray(gains, dtype=np.complex128)
    _require(gains.shape == shape, f"gains of shape {gains.shape} for a {shape} TX x RX radar")
    per_slot_rx = gains[cube.plan.tx_order, :]  # (n_slots, n_rx)
    return replace(cube, samples=cube.samples * per_slot_rx.T[:, :, None])

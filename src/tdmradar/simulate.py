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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .config import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    FramePlan,
    InvalidParameterError,
    RadarParams,
    _check_fields,
    _from_dict,
    _from_json,
    _require,
    build_frame_plan,
)

_SLOT_BLOCK = 64        # slots per matrix product: the rows hold T * 64 * n_fast samples
_NOISE_BLOCK = 1 << 16  # noise samples per draw: a 512 KB float64 buffer


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
        _require(self.amplitude > 0, "amplitude must be positive")


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

    def __post_init__(self) -> None:
        expected = (self.params.n_rx, self.plan.chirp_count_total,
                    self.params.adc_samples_per_chirp)
        _require(self.samples.shape == expected,
                 f"cube shape {self.samples.shape} does not match plan {expected}")


def _add_noise(cube: DataCube, scene: Scene) -> None:
    """Add the frame's noise in place through one reused buffer, in the draw order
    of ``normal(scale=sigma/sqrt(2), size=(2,) + shape)``: real parts, then imaginary."""
    if scene.snr_db is None:
        return
    # Counter-style seeding: each frame draws from its own reproducible stream.
    rng = np.random.default_rng([int(scene.rng_seed), int(cube.plan.frame_index)])
    # Post-range-FFT SNR for unit amplitude: amp^2 * N_fast / sigma^2.
    sigma = float(np.sqrt(cube.params.adc_samples_per_chirp / 10.0 ** (scene.snr_db / 10.0)))
    scale = sigma / np.sqrt(2.0)
    buf, flat = np.empty(_NOISE_BLOCK), cube.samples.reshape(-1)
    for part in (flat.real, flat.imag):
        for i in range(0, part.size, _NOISE_BLOCK):
            draw = rng.standard_normal(out=buf[:part.size - i])
            part[i:i + draw.size] += np.multiply(draw, scale, out=draw)


def simulate_frame(scene: Scene, params: RadarParams, geometry: ArrayGeometry,
                   frame_index: int, start_time_s: float = 0.0) -> DataCube:
    """Synthesize one frame: per block of slots, one product of the (n_rx, T)
    receive gains with the (T, slots * n_fast) transmit-phased chirp rows,
    then the scene's noise.  ``start_time_s`` keeps the target state
    continuous when frames are chained."""
    plan = build_frame_plan(params, frame_index)
    n_fast = params.adc_samples_per_chirp
    n_slots = plan.chirp_count_total

    frame_end = start_time_s + (n_slots - 1) * plan.slot_interval_s + params.chirp_duration_s
    r_max = params.max_unambiguous_range_m
    for target in scene.targets:
        for t_edge in (start_time_s, frame_end):
            r_edge = target.range_m + target.velocity_mps * t_edge
            _require(0.0 < r_edge < r_max,
                     f"target at {target.range_m} m, {target.velocity_mps} m/s leaves "
                     f"(0, {r_max:.1f}) m during the frame and would alias")

    slot_times = start_time_s + np.arange(n_slots) * plan.slot_interval_s
    fast_times = np.arange(n_fast) / params.sample_rate_hz
    tx_pos = np.asarray(geometry.tx_positions, dtype=float)
    rx_pos = np.asarray(geometry.rx_positions, dtype=float)

    ranges, velocities, azimuths, amplitudes = np.array(
        [(t.range_m, t.velocity_mps, t.azimuth_deg, t.amplitude) for t in scene.targets]
    ).reshape(-1, 4).T[:, :, None]
    u = np.sin(np.radians(azimuths))                                          # (T, 1)
    tx_phasor = np.exp(1j * np.pi * tx_pos * u)                               # (T, n_tx)
    rx_gain = amplitudes.T * np.exp(1j * np.pi * rx_pos[:, None] * u.T)       # (n_rx, T)

    cube = np.empty((params.n_rx, n_slots, n_fast), dtype=np.complex128)
    for s0 in range(0, n_slots, _SLOT_BLOCK):
        s1 = min(s0 + _SLOT_BLOCK, n_slots)
        r_slot = ranges + velocities * slot_times[s0:s1]
        carrier_phase = 2.0 * np.pi * 2.0 * params.carrier_frequency_hz * r_slot / SPEED_OF_LIGHT
        beat_hz = 2.0 * params.bandwidth_hz * r_slot / (params.chirp_duration_s * SPEED_OF_LIGHT)
        rows = np.exp(1j * (carrier_phase[..., None]
                            + 2.0 * np.pi * beat_hz[..., None] * fast_times))
        rows *= tx_phasor[:, plan.tx_order[s0:s1], None]
        # With no targets the product has an empty inner dimension and writes zeros.
        np.matmul(rx_gain, rows.reshape(len(u), (s1 - s0) * n_fast),
                  out=cube.reshape(params.n_rx, -1)[:, s0 * n_fast:s1 * n_fast])
    frame = DataCube(samples=cube, plan=plan, params=params)
    _add_noise(frame, scene)
    return frame


def simulate_frame_pair(scene: Scene, params: RadarParams,
                        geometry: ArrayGeometry) -> tuple:
    """Two back-to-back frames with staggered PRIs (frame 0 then frame 1).
    Frame b is simulated on a second thread; each frame draws its own noise
    stream, so the result does not depend on the threads."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        frame_b = pool.submit(simulate_frame, scene, params, geometry, 1,
                              params.frame_duration_s(0))
        return simulate_frame(scene, params, geometry, 0), frame_b.result()


def inject_channel_errors(cube: DataCube, gains) -> DataCube:
    """Multiply every sample by the complex gain of its (active TX, RX) pair.

    ``gains`` is (n_tx, n_rx) or flat of length n_tx*n_rx (TX-major).
    """
    params = cube.params
    gains = np.asarray(gains, dtype=np.complex128)
    if gains.size != params.n_tx * params.n_rx:
        raise InvalidParameterError(
            f"need {params.n_tx * params.n_rx} gains, got {gains.size}")
    gains = gains.reshape(params.n_tx, params.n_rx)

    per_slot_rx = gains[cube.plan.tx_order, :]  # (n_slots, n_rx)
    samples = cube.samples * per_slot_rx.T[:, :, None]
    return DataCube(samples=samples, plan=cube.plan, params=cube.params)

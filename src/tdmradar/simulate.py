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

import json
from dataclasses import dataclass

import numpy as np

from .config import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    FramePlan,
    InvalidParameterError,
    RadarParams,
    build_frame_plan,
)


@dataclass(frozen=True)
class PointTarget:
    """Ideal point scatterer.  Positive velocity recedes from the radar."""

    range_m: float
    velocity_mps: float
    azimuth_deg: float
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.range_m <= 0:
            raise InvalidParameterError("target range must be positive")
        if not -90.0 < self.azimuth_deg < 90.0:
            raise InvalidParameterError("azimuth must lie in (-90, 90) degrees")
        if self.amplitude <= 0:
            raise InvalidParameterError("amplitude must be positive")


@dataclass(frozen=True)
class Scene:
    """Target list plus noise level.  ``snr_db`` is the post-range-FFT SNR of
    a unit-amplitude target; ``None`` means noiseless."""

    targets: tuple
    snr_db: float | None = None
    rng_seed: int = 0

    @classmethod
    def from_dict(cls, data: dict) -> "Scene":
        targets = tuple(
            PointTarget(
                range_m=t["range_m"],
                velocity_mps=t.get("velocity_mps", 0.0),
                azimuth_deg=t.get("azimuth_deg", 0.0),
                amplitude=t.get("amplitude", 1.0),
            )
            for t in data.get("targets", [])
        )
        return cls(targets=targets, snr_db=data.get("snr_db"),
                   rng_seed=int(data.get("rng_seed", 0)))

    @classmethod
    def from_json(cls, path) -> "Scene":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "targets": [
                {"range_m": t.range_m, "velocity_mps": t.velocity_mps,
                 "azimuth_deg": t.azimuth_deg, "amplitude": t.amplitude}
                for t in self.targets
            ],
            "snr_db": self.snr_db,
            "rng_seed": self.rng_seed,
        }


@dataclass
class DataCube:
    """One frame of raw baseband samples, indexed (rx, chirp slot, fast time)."""

    samples: np.ndarray
    plan: FramePlan
    params: RadarParams

    def __post_init__(self) -> None:
        expected = (self.params.n_rx, self.plan.chirp_count_total,
                    self.params.adc_samples_per_chirp)
        if self.samples.shape != expected:
            raise InvalidParameterError(
                f"cube shape {self.samples.shape} does not match plan {expected}")


def _noise_rng(seed: int, frame_index: int) -> np.random.Generator:
    # Counter-style seeding: each frame draws from its own reproducible stream.
    return np.random.default_rng([int(seed), int(frame_index)])


def _noise_sigma(params: RadarParams, snr_db: float) -> float:
    # Post-range-FFT SNR for unit amplitude: amp^2 * N_fast / sigma^2.
    return float(np.sqrt(params.adc_samples_per_chirp / 10.0 ** (snr_db / 10.0)))


def simulate_frame(scene: Scene, params: RadarParams, geometry: ArrayGeometry,
                   frame_index: int, start_time_s: float = 0.0) -> DataCube:
    """Synthesize one frame; ``start_time_s`` keeps the target state
    continuous when frames are chained."""
    plan = build_frame_plan(params, frame_index)
    n_rx = params.n_rx
    n_fast = params.adc_samples_per_chirp
    n_slots = plan.chirp_count_total

    slot_times = start_time_s + np.arange(n_slots) * plan.slot_interval_s
    fast_times = np.arange(n_fast) / params.sample_rate_hz
    tx_pos = np.asarray(geometry.tx_positions, dtype=float)
    rx_pos = np.asarray(geometry.rx_positions, dtype=float)
    tx_of_slot = np.asarray(plan.tx_order)

    frame_end = start_time_s + (n_slots - 1) * plan.slot_interval_s + params.chirp_duration_s
    r_max = params.max_unambiguous_range_m

    cube = np.zeros((n_rx, n_slots, n_fast), dtype=np.complex128)
    for target in scene.targets:
        for t_edge in (start_time_s, frame_end):
            r_edge = target.range_m + target.velocity_mps * t_edge
            if not 0.0 < r_edge < r_max:
                raise InvalidParameterError(
                    f"target at {target.range_m} m, {target.velocity_mps} m/s leaves "
                    f"(0, {r_max:.1f}) m during the frame and would alias")

        r_slot = target.range_m + target.velocity_mps * slot_times
        carrier_phase = 2.0 * np.pi * 2.0 * params.carrier_frequency_hz * r_slot / SPEED_OF_LIGHT
        beat_hz = 2.0 * params.bandwidth_hz * r_slot / (params.chirp_duration_s * SPEED_OF_LIGHT)
        slow_fast = np.exp(1j * (carrier_phase[:, None]
                                 + 2.0 * np.pi * beat_hz[:, None] * fast_times[None, :]))

        u = np.sin(np.radians(target.azimuth_deg))
        tx_phasor = np.exp(1j * np.pi * tx_pos * u)[tx_of_slot]
        rx_phasor = np.exp(1j * np.pi * rx_pos * u)
        cube += target.amplitude * rx_phasor[:, None, None] * (tx_phasor[:, None] * slow_fast)[None, :, :]

    if scene.snr_db is not None:
        rng = _noise_rng(scene.rng_seed, frame_index)
        sigma = _noise_sigma(params, scene.snr_db)
        noise = rng.normal(scale=sigma / np.sqrt(2.0), size=(2,) + cube.shape)
        cube.real += noise[0]
        cube.imag += noise[1]

    return DataCube(samples=cube, plan=plan, params=params)


def simulate_frame_pair(scene: Scene, params: RadarParams,
                        geometry: ArrayGeometry) -> tuple:
    """Two back-to-back frames with staggered PRIs (frame 0 then frame 1)."""
    frame_a = simulate_frame(scene, params, geometry, frame_index=0, start_time_s=0.0)
    offset = frame_a.plan.chirp_count_total * frame_a.plan.slot_interval_s
    frame_b = simulate_frame(scene, params, geometry, frame_index=1, start_time_s=offset)
    return frame_a, frame_b


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

    tx_of_slot = np.asarray(cube.plan.tx_order)
    per_slot_rx = gains[tx_of_slot, :]          # (n_slots, n_rx)
    samples = cube.samples * per_slot_rx.T[:, :, None]
    return DataCube(samples=samples, plan=cube.plan, params=cube.params)

"""Waveform parameters, staggered-TDM transmit schedules, array geometry and
the closed-form resolution/ambiguity formulas derived from them.

Conventions used across the package:

* antenna positions are integers in half-wavelength units,
* positive radial velocity means increasing range (receding target),
* azimuth is positive toward increasing element position,
* even frames use ``pri_frame_a_s``, odd frames use ``pri_frame_b_s``.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

SPEED_OF_LIGHT = 2.998e8  # m/s


class InvalidParameterError(ValueError):
    """A parameter is outside its physically meaningful range."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidParameterError(message)


def _is_number(value, integral: bool = False) -> bool:
    """A finite int or float (only an int when ``integral``), never a bool."""
    return (isinstance(value, numbers.Integral if integral else numbers.Real)
            and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or math.isfinite(value)))


def _check_fields(obj) -> None:
    """Type-check every ``int``, ``float`` and ``float | None`` field of a
    dataclass by its annotation: a finite number, an integer where ``int``."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type in ("int", "float") or (f.type == "float | None" and value is not None):
            _require(_is_number(value, integral=f.type == "int"),
                     f"{f.name} must be a finite {f.type}, got {value!r}")


def _check_keys(what: str, data, known, required=()) -> None:
    """Raise unless ``data`` is a JSON object whose keys lie in ``known`` and
    cover ``required``, naming the unknown and missing ones."""
    _require(isinstance(data, dict), f"{what} must be a JSON object")
    unknown = sorted(data.keys() - set(known))
    missing = [k for k in required if k not in data]
    _require(not unknown and not missing,
             f"{what}: unknown fields {unknown}, missing fields {missing}")


def _from_dict(cls, data: dict):
    """Build dataclass ``cls`` from a JSON object holding exactly its fields."""
    _check_keys(cls.__name__, data, [f.name for f in fields(cls)],
                [f.name for f in fields(cls) if f.default is MISSING])
    return cls(**data)


def _from_json(cls, path):
    with open(path, "r", encoding="utf-8") as fh:
        return cls.from_dict(json.load(fh))


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class RadarParams:
    """FMCW waveform and frame timing for one staggered frame pair."""

    carrier_frequency_hz: float
    bandwidth_hz: float
    chirp_duration_s: float
    adc_samples_per_chirp: int
    chirps_per_tx_per_frame: int
    n_tx: int
    n_rx: int
    pri_frame_a_s: float
    pri_frame_b_s: float

    def __post_init__(self) -> None:
        _check_fields(self)
        _require(self.carrier_frequency_hz > 0, "carrier frequency must be positive")
        _require(self.bandwidth_hz > 0, "bandwidth must be positive")
        _require(self.chirp_duration_s > 0, "chirp duration must be positive")
        _require(self.pri_frame_a_s >= self.chirp_duration_s,
                 "frame-a PRI shorter than the chirp itself")
        _require(self.pri_frame_b_s >= self.chirp_duration_s,
                 "frame-b PRI shorter than the chirp itself")
        _require(self.pri_frame_a_s != self.pri_frame_b_s,
                 "staggered frames need two distinct PRIs")
        _require(self.n_tx >= 1, "need at least one TX antenna")
        _require(self.n_rx >= 1, "need at least one RX antenna")
        _require(_is_power_of_two(self.adc_samples_per_chirp),
                 "adc_samples_per_chirp must be a power of two")
        _require(_is_power_of_two(self.chirps_per_tx_per_frame),
                 "chirps_per_tx_per_frame must be a power of two")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency_hz

    @property
    def sample_rate_hz(self) -> float:
        return self.adc_samples_per_chirp / self.chirp_duration_s

    @property
    def max_unambiguous_range_m(self) -> float:
        # Beat spectrum is used one-sided: targets must stay below f_s/2.
        return self.adc_samples_per_chirp * SPEED_OF_LIGHT / (4.0 * self.bandwidth_hz)

    def pri_for_frame(self, frame_index: int) -> float:
        return self.pri_frame_a_s if frame_index % 2 == 0 else self.pri_frame_b_s

    def frame_duration_s(self, frame_index: int) -> float:
        return self.n_tx * self.chirps_per_tx_per_frame * self.pri_for_frame(frame_index)

    def to_dict(self) -> dict:
        return asdict(self)

    from_dict = classmethod(_from_dict)
    from_json = classmethod(_from_json)

    def digest(self) -> bytes:
        """SHA-256 over the canonical JSON form, stored in cube file headers."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).digest()


def default_params() -> RadarParams:
    """Imaging-radar defaults: 77 GHz carrier, 250 MHz sweep (0.6 m range
    bins), 9 TX x 16 RX, staggered 21.0/27.2 us PRIs (folded vmax
    5.15/3.97 m/s with 9 TX)."""
    return RadarParams(
        carrier_frequency_hz=77e9,
        bandwidth_hz=250e6,
        chirp_duration_s=20e-6,
        adc_samples_per_chirp=512,
        chirps_per_tx_per_frame=128,
        n_tx=9,
        n_rx=16,
        pri_frame_a_s=21.0e-6,
        pri_frame_b_s=27.2e-6,
    )


# ---------------------------------------------------------------------------
# Closed-form quantities
# ---------------------------------------------------------------------------

def range_resolution(params: RadarParams) -> float:
    """Range bin size c/(2B) in meters."""
    _require(params.bandwidth_hz > 0, "bandwidth must be positive")
    return SPEED_OF_LIGHT / (2.0 * params.bandwidth_hz)


def folded_vmax(params: RadarParams, frame_index: int) -> float:
    """Maximum unambiguous velocity of one TDM frame, lambda/(4*N_tx*PRI).

    The TX revisit interval is N_tx times the chirp repetition interval, so
    the usual lambda/(4*PRI) limit shrinks by the TX count.
    """
    pri = params.pri_for_frame(frame_index)
    return params.wavelength_m / (4.0 * params.n_tx * pri)


def beat_frequency(range_m: float, velocity_mps: float, params: RadarParams) -> float:
    """Mixer output frequency f_R + f_D for a point target."""
    _require(range_m >= 0, "range must be non-negative")
    f_range = 2.0 * params.bandwidth_hz * range_m / (params.chirp_duration_s * SPEED_OF_LIGHT)
    f_doppler = 2.0 * params.carrier_frequency_hz * velocity_mps / SPEED_OF_LIGHT
    return f_range + f_doppler


def azimuth_resolution_3db(aperture_halfwavelengths: float) -> float:
    """3 dB beamwidth 2*arcsin(1.4*lambda/(pi*D_x)) in degrees.

    With D_x expressed in half-wavelength units the wavelength cancels and
    the argument reduces to 2.8/(pi*aperture).
    """
    _require(aperture_halfwavelengths > 0, "aperture must be positive")
    argument = 2.8 / (math.pi * aperture_halfwavelengths)
    _require(argument <= 1.0, "aperture too small for the 3 dB beamwidth formula")
    return math.degrees(2.0 * math.asin(argument))


def phase_migration(velocity_mps: float, delay_s: float, wavelength_m: float) -> float:
    """Unwrapped phase (4*pi/lambda)*v*dt over a scheduling delay; broadcasts."""
    _require(wavelength_m > 0, "wavelength must be positive")
    return 4.0 * math.pi / wavelength_m * velocity_mps * delay_s


# ---------------------------------------------------------------------------
# TDM schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FramePlan:
    """Round-robin TDM schedule of one frame: slot s is transmitted by
    TX ``s % n_tx`` at time ``s * slot_interval_s`` after frame start."""

    frame_index: int
    n_tx: int
    slot_interval_s: float
    chirp_count_total: int

    @property
    def tx_order(self) -> np.ndarray:
        """TX index of every slot."""
        return np.arange(self.chirp_count_total) % self.n_tx

    @property
    def tx_revisit_interval_s(self) -> float:
        return self.n_tx * self.slot_interval_s


def build_frame_plan(params: RadarParams, frame_index: int) -> FramePlan:
    _require(params.chirps_per_tx_per_frame >= 2,
             "need at least two chirps per TX for Doppler processing")
    return FramePlan(
        frame_index=frame_index,
        n_tx=params.n_tx,
        slot_interval_s=params.pri_for_frame(frame_index),
        chirp_count_total=params.n_tx * params.chirps_per_tx_per_frame,
    )


# ---------------------------------------------------------------------------
# Array geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArrayGeometry:
    """Physical TX/RX element positions in half-wavelength grid units.
    Lists are accepted and stored as tuples."""

    tx_positions: tuple
    rx_positions: tuple

    def __post_init__(self) -> None:
        for name in ("tx_positions", "rx_positions"):
            positions = getattr(self, name)
            _require(isinstance(positions, (list, tuple)) and len(positions) > 0,
                     f"{name} must be a non-empty list, got {positions!r}")
            object.__setattr__(self, name, tuple(positions))
        for p in self.tx_positions + self.rx_positions:
            _require(_is_number(p, integral=True) and p >= 0,
                     f"position {p!r} is not a non-negative half-wavelength grid index")

    from_dict = classmethod(_from_dict)
    from_json = classmethod(_from_json)

    def to_dict(self) -> dict:
        return {"tx_positions": list(self.tx_positions),
                "rx_positions": list(self.rx_positions)}


def default_geometry() -> ArrayGeometry:
    """9 TX x 16 RX layout whose pairwise sums tile the complete 86-element
    half-wavelength ULA 0..85, with overlapped elements from distinct TXs."""
    return ArrayGeometry(
        tx_positions=(0, 4, 8, 12, 16, 20, 24, 28, 32),
        rx_positions=(0, 1, 2, 3, 11, 12, 13, 14, 46, 47, 48, 49, 50, 51, 52, 53),
    )


@dataclass(frozen=True)
class VirtualArray:
    """MIMO virtual array: every (tx, rx) pair contributes one element at
    position tx + rx.  ``element_sources[i]`` lists the (tx, rx) index pairs
    that land on ``virtual_positions[i]``; ``overlapped_pairs`` holds one
    (position, source_a, source_b) entry per position reachable from at
    least two distinct TX antennas."""

    virtual_positions: tuple
    element_sources: tuple
    overlapped_pairs: tuple
    aperture: int

    @property
    def n_positions(self) -> int:
        return len(self.virtual_positions)

    def source_table(self):
        """Flat source arrays (tx, rx, position) ordered by (position, tx, rx).

        This ordering defines the element order of every snapshot extracted
        from a range-Doppler cube.
        """
        tx, rx, pos = [], [], []
        for p, sources in zip(self.virtual_positions, self.element_sources):
            for t, r in sources:
                tx.append(t)
                rx.append(r)
                pos.append(p)
        return (np.asarray(tx, dtype=np.intp),
                np.asarray(rx, dtype=np.intp),
                np.asarray(pos, dtype=np.intp))


def _averaging_matrix(labels: np.ndarray, n_groups: int) -> np.ndarray:
    """(n_groups, labels.size) matrix whose row g holds 1/count at the
    entries labelled g: a product with it averages each group."""
    matrix = np.zeros((n_groups, labels.size))
    matrix[labels, np.arange(labels.size)] = 1.0 / np.bincount(labels, minlength=n_groups)[labels]
    return matrix


def build_virtual_array(geometry: ArrayGeometry) -> VirtualArray:
    by_position: dict = {}
    for ti, tp in enumerate(geometry.tx_positions):
        for ri, rp in enumerate(geometry.rx_positions):
            by_position.setdefault(tp + rp, []).append((ti, ri))

    positions = tuple(sorted(by_position))
    sources = tuple(tuple(sorted(by_position[p])) for p in positions)

    overlapped = []
    for p, srcs in zip(positions, sources):
        tx_seen = srcs[0][0]
        for cand in srcs[1:]:
            if cand[0] != tx_seen:
                overlapped.append((p, srcs[0], cand))
                break
    return VirtualArray(
        virtual_positions=positions,
        element_sources=sources,
        overlapped_pairs=tuple(overlapped),
        aperture=positions[-1] - positions[0],
    )

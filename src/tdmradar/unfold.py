"""Doppler ambiguity resolution for staggered TDM: alias candidate sets from
the two frame PRIs, their intersection, and the final pick by comparing the
phases of overlapped virtual-array elements, followed by per-TX migration
compensation."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import FramePlan, InvalidParameterError, VirtualArray, phase_migration


class UnsupportedGeometryError(InvalidParameterError):
    """The virtual array has no overlapped elements from distinct TXs."""


def fold_velocity(v_true: float, vmax: float) -> float:
    """Reduce a velocity into the unambiguous interval [-vmax, vmax)."""
    if vmax <= 0:
        raise InvalidParameterError("vmax must be positive")
    return float((v_true + vmax) % (2.0 * vmax) - vmax)


def crt_candidates(folded: float, vmax: float, n_tx: int) -> np.ndarray:
    """Alias hypotheses of one frame: the folded velocity plus integer
    multiples of 2*vmax out to order n_tx//2, ascending."""
    if vmax <= 0:
        raise InvalidParameterError("vmax must be positive")
    if n_tx < 1:
        raise InvalidParameterError("n_tx must be at least 1")
    order = n_tx // 2
    return folded + 2.0 * vmax * np.arange(-order, order + 1, dtype=float)


def crt_intersect(set_a: np.ndarray, set_b: np.ndarray, tolerance: float) -> np.ndarray:
    """Midpoints of all candidate pairs agreeing within the tolerance,
    deduplicated and sorted.  An empty result is a valid outcome."""
    if tolerance <= 0:
        raise InvalidParameterError("tolerance must be positive")
    a = np.asarray(set_a)[:, None]
    b = np.asarray(set_b)[None, :]
    close = np.abs(a - b) <= tolerance
    midpoints = ((a + b) / 2.0)[close]
    return np.unique(midpoints)


@dataclass
class VirtualSnapshot:
    """Complex response of every (tx, rx) channel of ``varray`` at one
    range/Doppler cell, in the array's source order (co-located channels kept
    separate so the overlap phases remain observable)."""

    values: np.ndarray
    varray: VirtualArray

    def __post_init__(self) -> None:
        if self.values.shape != self.varray.source_tx.shape:
            raise InvalidParameterError(
                f"snapshot has {self.values.size} values for a "
                f"{self.varray.source_tx.size}-channel array")
        if not np.all(np.isfinite(self.values)):
            raise InvalidParameterError("snapshot values must be finite")


def migration_rotation(velocity_mps, tx, plan: FramePlan,
                       wavelength_m: float) -> np.ndarray:
    """exp(-j*phase_migration(v, k*slot_interval)) for TX index k, broadcast
    over array-valued velocities and TX indices; TX 0 is the phase reference."""
    return np.exp(-1j * phase_migration(velocity_mps, tx * plan.slot_interval_s, wavelength_m))


def compensate_tdm_phase(snapshot: VirtualSnapshot, velocity_mps: float,
                         plan: FramePlan, wavelength_m: float) -> VirtualSnapshot:
    """Remove the scheduling-delay migration: the value from TX k is rotated
    by ``migration_rotation(v, k)``."""
    if not np.isfinite(velocity_mps):
        raise InvalidParameterError("velocity must be finite")
    rotated = snapshot.values * migration_rotation(velocity_mps, snapshot.varray.source_tx,
                                                   plan, wavelength_m)
    return replace(snapshot, values=rotated)


def resolve_velocity(snapshot: VirtualSnapshot, candidates, plan: FramePlan,
                     wavelength_m: float) -> float:
    """Pick the candidate whose migration compensation best aligns the
    phases of overlapped elements (sum of |wrapped phase difference| over
    the snapshot array's overlapped pairs; ties go to the smallest |v|)."""
    candidates = np.atleast_1d(np.asarray(candidates, dtype=float))
    if candidates.size == 0:
        raise InvalidParameterError("candidate list may not be empty")
    if candidates.size == 1:
        return float(candidates[0])
    varray = snapshot.varray
    if not varray.overlapped_pairs:
        raise UnsupportedGeometryError(
            "geometry has no overlapped elements from distinct TXs")

    side_a, side_b = varray.pair_index.T
    # (n_candidates, n_sources) compensated snapshots in one shot
    rotations = migration_rotation(candidates[:, None], varray.source_tx[None, :],
                                   plan, wavelength_m)
    compensated = rotations * snapshot.values[None, :]
    scores = np.sum(np.abs(np.angle(compensated[:, side_a] * np.conj(compensated[:, side_b]))),
                    axis=1)

    best = np.min(scores)
    tied = np.abs(scores - best) <= 1e-9
    winners = candidates[tied]
    return float(winners[np.argmin(np.abs(winners))])

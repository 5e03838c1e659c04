"""Doppler ambiguity resolution for staggered TDM: alias candidate sets from
the two frame PRIs, their intersection, and the final pick by comparing the
phases of overlapped virtual-array elements, followed by per-TX migration
compensation."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import (FramePlan, InvalidParameterError, VirtualArray, _averaging_matrix,
                     phase_migration)


class UnsupportedGeometryError(ValueError):
    """The virtual array has no overlapped elements from distinct TXs."""


def fold_velocity(v_true: float, vmax: float) -> float:
    """Reduce a velocity into the unambiguous interval [-vmax, vmax)."""
    if vmax <= 0:
        raise InvalidParameterError("vmax must be positive")
    return float((v_true + vmax) % (2.0 * vmax) - vmax)


@dataclass(frozen=True)
class CandidateSet:
    """Alias hypotheses of one frame: folded velocity plus integer multiples
    of 2*vmax out to order M (M = n_tx//2)."""

    frame_index: int
    folded_mps: float
    vmax_mps: float
    order: int
    candidates: np.ndarray


def crt_candidates(folded: float, vmax: float, n_tx: int,
                   frame_index: int = 0) -> CandidateSet:
    if vmax <= 0:
        raise InvalidParameterError("vmax must be positive")
    if n_tx < 1:
        raise InvalidParameterError("n_tx must be at least 1")
    order = n_tx // 2
    candidates = folded + 2.0 * vmax * np.arange(-order, order + 1, dtype=float)
    return CandidateSet(frame_index=frame_index, folded_mps=float(folded),
                        vmax_mps=float(vmax), order=order, candidates=candidates)


def crt_intersect(set_a: CandidateSet, set_b: CandidateSet,
                  tolerance: float) -> np.ndarray:
    """Midpoints of all candidate pairs agreeing within the tolerance,
    deduplicated and sorted.  An empty result is a valid outcome."""
    if tolerance <= 0:
        raise InvalidParameterError("tolerance must be positive")
    a = set_a.candidates[:, None]
    b = set_b.candidates[None, :]
    close = np.abs(a - b) <= tolerance
    midpoints = ((a + b) / 2.0)[close]
    return np.unique(midpoints)


@dataclass
class VirtualSnapshot:
    """Complex response of every physical (tx, rx) source at one
    range/Doppler cell, ordered by virtual position (co-located sources kept
    separate so the overlap phases remain observable)."""

    values: np.ndarray
    source_tx: np.ndarray
    source_rx: np.ndarray
    source_position: np.ndarray
    cell: tuple
    frame_index: int

    def __post_init__(self) -> None:
        n = self.values.size
        if not (self.source_tx.size == self.source_rx.size == self.source_position.size == n):
            raise InvalidParameterError("snapshot source arrays must have equal length")
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
    rotated = snapshot.values * migration_rotation(velocity_mps, snapshot.source_tx,
                                                   plan, wavelength_m)
    return replace(snapshot, values=rotated)


def _overlap_groups(snapshot: VirtualSnapshot, varray: VirtualArray):
    """Averaging matrices for the two TX groups of every overlapped pair."""
    n_pairs = len(varray.overlapped_pairs)
    labels = np.full(snapshot.values.size, 2 * n_pairs)  # sources in no pair
    for row, (pos, (tx_a, _), (tx_b, _)) in enumerate(varray.overlapped_pairs):
        at_pos = snapshot.source_position == pos
        labels[at_pos & (snapshot.source_tx == tx_a)] = 2 * row
        labels[at_pos & (snapshot.source_tx == tx_b)] = 2 * row + 1
    groups = _averaging_matrix(labels, 2 * n_pairs + 1)[:-1]
    if not groups.any(axis=1).all():
        raise InvalidParameterError(
            "snapshot does not cover the virtual array's overlapped pairs")
    return groups[0::2], groups[1::2]


def resolve_velocity(snapshot: VirtualSnapshot, candidates, varray: VirtualArray,
                     plan: FramePlan, wavelength_m: float) -> float:
    """Pick the candidate whose migration compensation best aligns the
    phases of overlapped elements (sum of |wrapped phase difference| over
    the overlapped pairs; ties go to the smallest |v|)."""
    candidates = np.atleast_1d(np.asarray(candidates, dtype=float))
    if candidates.size == 0:
        raise InvalidParameterError("candidate list may not be empty")
    if candidates.size == 1:
        return float(candidates[0])
    if not varray.overlapped_pairs:
        raise UnsupportedGeometryError(
            "geometry has no overlapped elements from distinct TXs")

    side_a, side_b = _overlap_groups(snapshot, varray)
    # (n_candidates, n_sources) compensated snapshots in one shot
    rotations = migration_rotation(candidates[:, None], snapshot.source_tx[None, :],
                                   plan, wavelength_m)
    compensated = rotations * snapshot.values[None, :]
    mean_a = compensated @ side_a.T
    mean_b = compensated @ side_b.T
    scores = np.sum(np.abs(np.angle(mean_a * np.conj(mean_b))), axis=1)

    best = np.min(scores)
    tied = np.abs(scores - best) <= 1e-9
    winners = candidates[tied]
    return float(winners[np.argmin(np.abs(winners))])

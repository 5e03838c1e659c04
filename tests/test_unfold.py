import numpy as np
import pytest

from tdmradar import (
    InvalidParameterError,
    UnsupportedGeometryError,
    build_frame_plan,
    build_virtual_array,
    compensate_tdm_phase,
    crt_candidates,
    crt_intersect,
    fold_velocity,
    folded_vmax,
    noncoherent_integrate,
    phase_migration,
    range_doppler_map,
    resolve_velocity,
    simulate_frame,
    tdm_demux,
)
from tdmradar.angle import assemble_snapshot
from tdmradar.config import ArrayGeometry
from tdmradar.unfold import VirtualSnapshot, migration_rotation

from conftest import peak_cell, single_target_scene

PAPER_SET_A = [-30.1, -22.9, -15.6, -8.4, -1.2, 6.0, 13.2, 20.5, 27.7]
PAPER_SET_B = [-15.6, -11.3, -7.0, -2.6, 1.7, 6.0, 10.4, 14.7, 19.0]


class TestFold:
    def test_worked_example_frame_a(self):
        assert fold_velocity(6.0, 3.6) == pytest.approx(-1.2, abs=1e-12)

    def test_worked_example_frame_b(self):
        assert fold_velocity(6.0, 2.2) == pytest.approx(1.6, abs=1e-12)

    def test_identity_region(self):
        for v in (-3.5, -1.0, 0.0, 2.2, 3.59):
            assert fold_velocity(v, 3.6) == pytest.approx(v, abs=1e-12)

    def test_upper_edge_wraps(self):
        assert fold_velocity(3.6, 3.6) == pytest.approx(-3.6)

    def test_bad_vmax(self):
        with pytest.raises(InvalidParameterError):
            fold_velocity(1.0, 0.0)


class TestCandidates:
    def test_frame_a_exact_list(self):
        cs = crt_candidates(-1.2, 3.6, 9)
        expected = [-30.0, -22.8, -15.6, -8.4, -1.2, 6.0, 13.2, 20.4, 27.6]
        np.testing.assert_allclose(cs, expected, atol=1e-9)
        assert cs.size == 9
        # the printed reference list is the same set up to rounding
        assert np.max(np.abs(cs - np.asarray(PAPER_SET_A))) <= 0.15

    def test_frame_b_exact_list(self):
        cs = crt_candidates(1.6, 2.2, 9)
        expected = [-16.0, -11.6, -7.2, -2.8, 1.6, 6.0, 10.4, 14.8, 19.2]
        np.testing.assert_allclose(cs, expected, atol=1e-9)

    def test_single_tx_no_ambiguity(self):
        np.testing.assert_allclose(crt_candidates(2.5, 10.0, 1), [2.5])

    def test_even_tx_order(self):
        assert crt_candidates(0.0, 1.0, 8).size == 9

    def test_sorted_and_spaced(self):
        cs = crt_candidates(0.7, 2.0, 7)
        diffs = np.diff(cs)
        np.testing.assert_allclose(diffs, 4.0)


class TestIntersect:
    def test_paper_rounded_sets(self):
        common = crt_intersect(np.asarray(PAPER_SET_A), np.asarray(PAPER_SET_B), tolerance=0.25)
        np.testing.assert_allclose(common, [-15.6, 6.0], atol=0.2)

    def test_exact_sets_leave_single_candidate(self):
        set_a = crt_candidates(-1.2, 3.6, 9)
        set_b = crt_candidates(1.6, 2.2, 9)
        common = crt_intersect(set_a, set_b, tolerance=0.3)
        np.testing.assert_allclose(common, [6.0], atol=1e-12)

    def test_self_intersection_returns_all(self):
        cs = crt_candidates(0.3, 2.0, 9)
        common = crt_intersect(cs, cs, tolerance=0.1)
        np.testing.assert_allclose(common, cs)

    def test_symmetry(self):
        set_a = crt_candidates(-1.2, 3.6, 9)
        set_b = crt_candidates(1.6, 2.2, 9)
        ab = crt_intersect(set_a, set_b, 0.5)
        ba = crt_intersect(set_b, set_a, 0.5)
        np.testing.assert_allclose(ab, ba)

    def test_monotone_in_tolerance(self):
        set_a = crt_candidates(-1.2, 3.6, 9)
        set_b = crt_candidates(1.6, 2.2, 9)
        narrow = set(np.round(crt_intersect(set_a, set_b, 0.2), 9))
        wide = set(np.round(crt_intersect(set_a, set_b, 0.45), 9))
        # a midpoint admitted at small tolerance stays admitted at larger one
        for value in narrow:
            assert any(abs(value - w) <= 0.25 for w in wide)
        assert len(wide) >= len(narrow)

    def test_empty_is_valid(self):
        set_a = crt_candidates(0.0, 3.6, 1)
        set_b = crt_candidates(1.0, 2.2, 1)
        assert crt_intersect(set_a, set_b, 0.1).size == 0


class TestRoundTrip:
    def test_dense_velocity_grid(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            vmax = rng.uniform(0.5, 10.0)
            n_tx = int(rng.integers(1, 13))
            order = n_tx // 2
            span = (2 * order + 1) * vmax
            for v in np.linspace(-span + 1e-6, span - 1e-6, 41):
                folded = fold_velocity(v, vmax)
                cands = crt_candidates(folded, vmax, n_tx)
                assert np.min(np.abs(cands - v)) < 1e-9


def _simulated_snapshot(params, geometry, varray, scene):
    cube = simulate_frame(scene, params, geometry, 0)
    rd = range_doppler_map(tdm_demux(cube, cube.plan))
    cell = peak_cell(noncoherent_integrate(rd))
    return rd, cell, assemble_snapshot(rd, cell, varray)


def _random_snapshot(varray, seed):
    rng = np.random.default_rng(seed)
    n = varray.source_tx.size
    return VirtualSnapshot(rng.normal(size=n) + 1j * rng.normal(size=n), varray)


class TestSnapshot:
    def test_values_of_wrong_length_raise(self, varray):
        for n in (143, 145, 0):
            with pytest.raises(InvalidParameterError, match="144-channel array"):
                VirtualSnapshot(np.ones(n, dtype=complex), varray)
        with pytest.raises(InvalidParameterError):
            VirtualSnapshot(np.ones((9, 16), dtype=complex), varray)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_values_raise(self, varray, bad):
        values = np.ones(varray.source_tx.size, dtype=complex)
        values[17] = bad
        with pytest.raises(InvalidParameterError, match="finite"):
            VirtualSnapshot(values, varray)


def _reference_scores(snapshot, candidates, plan, wavelength_m):
    """The overlap score as first written: per pair, the mean of each TX
    group at the pair's slot through a dense averaging matrix."""
    varray = snapshot.varray
    slot = varray.position[varray.source_tx, varray.source_rx]
    n_pairs = len(varray.overlapped_pairs)
    labels = np.full(slot.size, 2 * n_pairs)  # sources in no pair
    for row, (pos, (tx_a, _), (tx_b, _)) in enumerate(varray.overlapped_pairs):
        labels[(slot == pos) & (varray.source_tx == tx_a)] = 2 * row
        labels[(slot == pos) & (varray.source_tx == tx_b)] = 2 * row + 1
    groups = np.zeros((2 * n_pairs + 1, slot.size))
    groups[labels, np.arange(slot.size)] = 1.0 / np.bincount(labels)[labels]
    rotations = migration_rotation(np.asarray(candidates)[:, None],
                                   varray.source_tx[None, :], plan, wavelength_m)
    compensated = rotations * snapshot.values[None, :]
    mean_a = compensated @ groups[0:-1:2].T
    mean_b = compensated @ groups[1:-1:2].T
    return np.sum(np.abs(np.angle(mean_a * np.conj(mean_b))), axis=1)


class TestResolve:
    def test_worked_example_candidates(self, geometry, varray):
        from tdmradar.demos import _params_for_vmax

        params = _params_for_vmax(3.6, 2.2)
        scene = single_target_scene(range_m=20.0, velocity_mps=6.0, azimuth_deg=10.0)
        rd, _, snapshot = _simulated_snapshot(params, geometry, varray, scene)
        v = resolve_velocity(snapshot, [-15.6, 6.0], rd.plan, params.wavelength_m)
        assert v == 6.0

    def test_single_candidate_unconditional(self, varray, small_params):
        plan = build_frame_plan(small_params, 0)
        snapshot = VirtualSnapshot(np.ones(varray.source_tx.size, dtype=complex), varray)
        assert resolve_velocity(snapshot, [42.0], plan, 4e-3) == 42.0

    def test_static_target_resolves_to_zero(self, geometry, varray, small_params):
        scene = single_target_scene(range_m=20.0, velocity_mps=0.0, azimuth_deg=-8.0)
        rd, _, snapshot = _simulated_snapshot(small_params, geometry, varray, scene)
        vmax = rd.folded_vmax_mps
        candidates = crt_candidates(0.0, vmax, small_params.n_tx)
        assert resolve_velocity(snapshot, candidates, rd.plan,
                                small_params.wavelength_m) == 0.0

    def test_global_scaling_invariance(self, geometry, varray, small_params):
        scene = single_target_scene(range_m=15.0, velocity_mps=3.0, azimuth_deg=6.0,
                                    snr_db=25.0, seed=5)
        rd, cell, snapshot = _simulated_snapshot(small_params, geometry, varray, scene)
        candidates = crt_candidates(rd.velocity_axis[cell[1]],
                                    rd.folded_vmax_mps, small_params.n_tx)
        v1 = resolve_velocity(snapshot, candidates, rd.plan, small_params.wavelength_m)
        from dataclasses import replace

        scaled = replace(snapshot, values=snapshot.values * (3.7 * np.exp(1j * 0.9)))
        v2 = resolve_velocity(scaled, candidates, rd.plan, small_params.wavelength_m)
        assert v1 == v2

    @pytest.mark.parametrize("default", [True, False])
    def test_matches_averaging_matrix_reference(self, small_params, geometry, default):
        # the default geometry, and one whose middle slot holds three channels
        from dataclasses import replace

        geometry = geometry if default else ArrayGeometry((0, 1, 2), (0, 1, 2))
        params = replace(small_params, n_tx=len(geometry.tx_positions),
                         n_rx=len(geometry.rx_positions))
        varray = build_virtual_array(geometry)
        rng = np.random.default_rng(41)
        span = 3.0 * folded_vmax(params, 0)
        for seed in range(6):
            scene = single_target_scene(range_m=rng.uniform(6.0, 30.0),
                                        velocity_mps=rng.uniform(-span, span),
                                        azimuth_deg=rng.uniform(-30.0, 30.0),
                                        snr_db=5.0, seed=seed)
            rd, cell, snapshot = _simulated_snapshot(params, geometry, varray, scene)
            candidates = crt_candidates(rd.velocity_axis[cell[1]], rd.folded_vmax_mps,
                                        params.n_tx)
            picked = resolve_velocity(snapshot, candidates, rd.plan, params.wavelength_m)
            scores = _reference_scores(snapshot, candidates, rd.plan, params.wavelength_m)
            tied = candidates[np.abs(scores - scores.min()) <= 1e-9]
            assert picked == tied[np.argmin(np.abs(tied))]
            assert scores[candidates == picked][0] == scores.min()

    def test_empty_candidates_error(self, varray, small_params):
        plan = build_frame_plan(small_params, 0)
        snapshot = VirtualSnapshot(np.ones(varray.source_tx.size, dtype=complex), varray)
        with pytest.raises(InvalidParameterError):
            resolve_velocity(snapshot, [], plan, 4e-3)

    def test_no_overlap_geometry_error(self, small_params):
        va = build_virtual_array(ArrayGeometry((0,), (0, 1, 2, 3)))
        plan = build_frame_plan(small_params, 0)
        snapshot = VirtualSnapshot(np.ones(va.source_tx.size, dtype=complex), va)
        with pytest.raises(UnsupportedGeometryError):
            resolve_velocity(snapshot, [0.0, 1.0], plan, 4e-3)


class TestCompensate:
    def test_zero_velocity_identity(self, varray, small_params):
        plan = build_frame_plan(small_params, 0)
        snapshot = _random_snapshot(varray, 2)
        out = compensate_tdm_phase(snapshot, 0.0, plan, small_params.wavelength_m)
        np.testing.assert_array_equal(out.values, snapshot.values)

    def test_round_trip_identity(self, varray, small_params):
        plan = build_frame_plan(small_params, 0)
        snapshot = _random_snapshot(varray, 3)
        forward = compensate_tdm_phase(snapshot, 7.3, plan, small_params.wavelength_m)
        back = compensate_tdm_phase(forward, -7.3, plan, small_params.wavelength_m)
        np.testing.assert_allclose(back.values, snapshot.values, rtol=1e-12, atol=1e-12)

    def test_applied_phase_matches_migration_formula(self, varray, small_params):
        plan = build_frame_plan(small_params, 0)
        snapshot = VirtualSnapshot(np.ones(varray.source_tx.size, dtype=complex), varray)
        v = 4.2
        out = compensate_tdm_phase(snapshot, v, plan, small_params.wavelength_m)
        for k in range(small_params.n_tx):
            member = np.nonzero(varray.source_tx == k)[0][0]
            expected = -phase_migration(v, k * plan.slot_interval_s,
                                        small_params.wavelength_m)
            applied = np.angle(out.values[member])
            assert np.angle(np.exp(1j * (applied - expected))) == pytest.approx(0.0, abs=1e-9)

    def test_tx0_unchanged(self, varray, small_params):
        plan = build_frame_plan(small_params, 0)
        snapshot = _random_snapshot(varray, 4)
        out = compensate_tdm_phase(snapshot, 9.9, plan, small_params.wavelength_m)
        tx0 = varray.source_tx == 0
        np.testing.assert_array_equal(out.values[tx0], snapshot.values[tx0])

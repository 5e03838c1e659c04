import math
from pathlib import Path

import numpy as np
import pytest

from tdmradar import (
    ArrayGeometry,
    InvalidParameterError,
    RadarParams,
    azimuth_resolution_3db,
    beat_frequency,
    build_frame_plan,
    build_virtual_array,
    default_geometry,
    default_params,
    folded_vmax,
    phase_migration,
    range_resolution,
)


def params_with(**overrides):
    base = dict(
        carrier_frequency_hz=77e9, bandwidth_hz=250e6, chirp_duration_s=20e-6,
        adc_samples_per_chirp=128, chirps_per_tx_per_frame=32, n_tx=9, n_rx=16,
        pri_frame_a_s=21.0e-6, pri_frame_b_s=27.2e-6)
    base.update(overrides)
    return RadarParams(**base)


class TestRangeResolution:
    def test_matches_reference_value(self):
        assert range_resolution(params_with(bandwidth_hz=250e6)) == pytest.approx(0.5996, abs=1e-4)

    def test_500mhz(self):
        assert range_resolution(params_with(bandwidth_hz=500e6)) == pytest.approx(0.2998, abs=1e-4)

    def test_inverse_proportionality(self):
        assert range_resolution(params_with(bandwidth_hz=125e6)) == pytest.approx(
            2 * range_resolution(params_with(bandwidth_hz=250e6)))

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(InvalidParameterError):
            params_with(bandwidth_hz=-1.0)


class TestFoldedVmax:
    def test_reference_table_values(self):
        p = params_with()
        assert folded_vmax(p, 0) == pytest.approx(5.15, abs=5e-3)
        assert folded_vmax(p, 1) == pytest.approx(3.97, abs=7e-3)

    def test_single_tx(self):
        p = params_with(n_tx=1, pri_frame_a_s=50e-6, pri_frame_b_s=60e-6)
        assert folded_vmax(p, 0) == pytest.approx(19.46, abs=1e-2)

    def test_doubling_tx_halves_vmax(self):
        lo = params_with(n_tx=4, n_rx=4)
        hi = params_with(n_tx=8, n_rx=4)
        assert folded_vmax(hi, 0) == pytest.approx(folded_vmax(lo, 0) / 2)

    def test_staggered_frames_differ(self):
        p = params_with()
        assert folded_vmax(p, 0) != folded_vmax(p, 1)


class TestBeatFrequency:
    def test_range_term(self):
        p = params_with(chirp_duration_s=50e-6, adc_samples_per_chirp=512,
                        pri_frame_a_s=50e-6, pri_frame_b_s=60e-6)
        assert beat_frequency(150.0, 0.0, p) == pytest.approx(5.0e6, rel=1e-3)

    def test_zero(self):
        assert beat_frequency(0.0, 0.0, params_with()) == 0.0

    def test_doppler_term(self):
        assert beat_frequency(0.0, 5.15, params_with()) == pytest.approx(2645.0, abs=1.0)

    def test_negative_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            beat_frequency(-1.0, 0.0, params_with())


class TestAzimuthResolution:
    def test_full_aperture(self):
        assert azimuth_resolution_3db(85) == pytest.approx(1.2016, abs=1e-3)

    def test_half_aperture(self):
        assert azimuth_resolution_3db(42.5) == pytest.approx(2.404, abs=2e-3)

    def test_strictly_decreasing(self):
        apertures = np.linspace(2, 500, 60)
        widths = [azimuth_resolution_3db(a) for a in apertures]
        assert all(b < a for a, b in zip(widths, widths[1:]))

    def test_large_aperture_limit(self):
        assert azimuth_resolution_3db(1e6) < 1e-3

    def test_tiny_aperture_rejected(self):
        with pytest.raises(InvalidParameterError):
            azimuth_resolution_3db(0.5)


class TestPhaseMigration:
    def test_reference_value(self):
        lam = 2.998e8 / 77e9
        assert phase_migration(10.0, 50e-6, lam) == pytest.approx(1.614, abs=1e-3)

    def test_zero_velocity(self):
        assert phase_migration(0.0, 50e-6, 4e-3) == 0.0

    def test_linearity_in_delay(self):
        assert phase_migration(3.0, 100e-6, 4e-3) == pytest.approx(
            2 * phase_migration(3.0, 50e-6, 4e-3))

    def test_bilinear(self):
        assert phase_migration(8.0, 20e-6, 4e-3) == pytest.approx(
            2 * phase_migration(4.0, 20e-6, 4e-3), rel=1e-12)

    def test_unwrapped(self):
        # large arguments keep accumulating instead of wrapping into (-pi, pi]
        assert phase_migration(100.0, 1e-3, 4e-3) > 2 * math.pi


class TestFramePlan:
    def test_two_tx_interleave(self):
        p = params_with(n_tx=2, n_rx=4, chirps_per_tx_per_frame=2)
        plan = build_frame_plan(p, 0)
        assert plan.tx_order == (0, 1, 0, 1)

    def test_stagger_changes_only_timing(self):
        p = params_with()
        plan_a, plan_b = build_frame_plan(p, 0), build_frame_plan(p, 1)
        assert plan_a.tx_order == plan_b.tx_order
        assert plan_a.slot_interval_s == 21.0e-6
        assert plan_b.slot_interval_s == 27.2e-6

    def test_single_tx(self):
        p = params_with(n_tx=1)
        plan = build_frame_plan(p, 0)
        assert set(plan.tx_order) == {0}
        assert plan.tx_revisit_interval_s == plan.slot_interval_s

    def test_revisit_interval(self):
        plan = build_frame_plan(params_with(), 0)
        assert plan.tx_revisit_interval_s == pytest.approx(9 * 21.0e-6)

    def test_every_tx_appears_evenly(self):
        p = params_with()
        plan = build_frame_plan(p, 0)
        counts = np.bincount(plan.tx_order)
        assert (counts == p.chirps_per_tx_per_frame).all()


class TestVirtualArray:
    def test_single_tx_line(self):
        va = build_virtual_array(ArrayGeometry((0,), (0, 1, 2, 3)))
        assert va.virtual_positions == (0, 1, 2, 3)
        assert va.overlapped_pairs == ()

    def test_default_geometry_tiles_full_ula(self):
        va = build_virtual_array(default_geometry())
        assert va.virtual_positions == tuple(range(86))
        assert va.aperture == 85

    def test_default_geometry_has_overlap_with_distinct_tx(self):
        va = build_virtual_array(default_geometry())
        assert len(va.overlapped_pairs) > 0
        for _, (tx_a, _), (tx_b, _) in va.overlapped_pairs:
            assert tx_a != tx_b
        overlapped_positions = {p for p, _, _ in va.overlapped_pairs}
        assert overlapped_positions.issuperset(range(11, 36))

    def test_position_count_bound(self):
        geom = ArrayGeometry((0, 1), (0, 1, 2))
        va = build_virtual_array(geom)
        assert va.n_positions <= 2 * 3

    def test_every_pair_maps_once(self):
        va = build_virtual_array(default_geometry())
        sources = [s for group in va.element_sources for s in group]
        assert len(sources) == 9 * 16
        assert len(set(sources)) == 9 * 16

    def test_permutation_invariance(self):
        geom = default_geometry()
        shuffled = ArrayGeometry(geom.tx_positions[::-1], geom.rx_positions[::-1])
        va, vb = build_virtual_array(geom), build_virtual_array(shuffled)
        assert va.virtual_positions == vb.virtual_positions
        assert [len(g) for g in va.element_sources] == [len(g) for g in vb.element_sources]
        assert {p for p, _, _ in va.overlapped_pairs} == {p for p, _, _ in vb.overlapped_pairs}


class TestParamsValidation:
    def test_default_params_valid(self):
        p = default_params()
        assert p.n_tx == 9 and p.n_rx == 16

    def test_pri_shorter_than_chirp(self):
        with pytest.raises(InvalidParameterError):
            params_with(pri_frame_a_s=10e-6)

    def test_equal_pris_rejected(self):
        with pytest.raises(InvalidParameterError):
            params_with(pri_frame_b_s=21.0e-6)

    def test_non_power_of_two_samples(self):
        with pytest.raises(InvalidParameterError):
            params_with(adc_samples_per_chirp=100)

    @pytest.mark.parametrize("field, value", [("n_tx", "9"), ("n_tx", 9.0),
                                              ("bandwidth_hz", True),
                                              ("pri_frame_a_s", math.inf)])
    def test_wrong_typed_values_rejected(self, field, value):
        with pytest.raises(InvalidParameterError, match=field):
            params_with(**{field: value})

    def test_geometry_from_dict_needs_lists(self):
        with pytest.raises(InvalidParameterError):
            ArrayGeometry.from_dict({"tx_positions": 5, "rx_positions": [0]})

    def test_geometry_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            ArrayGeometry((-1,), (0,))

    def test_geometry_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            ArrayGeometry((), (0,))

    def test_digest_tracks_content(self):
        assert params_with().digest() == params_with().digest()
        assert params_with().digest() != params_with(bandwidth_hz=300e6).digest()

    def test_shipped_configs_load_as_defaults(self):
        configs = Path(__file__).resolve().parents[1] / "configs"
        assert RadarParams.from_json(configs / "params.json") == default_params()
        assert ArrayGeometry.from_json(configs / "geometry.json") == default_geometry()

import os
from pathlib import Path

import numpy as np
import pytest

from tdmradar import (
    ArrayGeometry,
    PointTarget,
    RadarParams,
    Scene,
    build_virtual_array,
    default_geometry,
    folded_vmax,
)

# The environment of a child Python process: it imports this checkout's
# package whether or not the suite was started with PYTHONPATH set.
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])))


@pytest.fixture(scope="session")
def geometry():
    return default_geometry()


@pytest.fixture(scope="session")
def varray(geometry):
    return build_virtual_array(geometry)


@pytest.fixture(scope="session")
def small_params():
    """Table-III-style waveform with shrunk chirp/sample counts for speed."""
    return RadarParams(
        carrier_frequency_hz=77e9,
        bandwidth_hz=250e6,
        chirp_duration_s=20e-6,
        adc_samples_per_chirp=128,
        chirps_per_tx_per_frame=32,
        n_tx=9,
        n_rx=16,
        pri_frame_a_s=21.0e-6,
        pri_frame_b_s=27.2e-6,
    )


def line_array(n_tx, n_rx):
    """An ``n_tx`` x ``n_rx`` array: RX elements at 0..n_rx-1, TX elements n_rx apart."""
    return ArrayGeometry(tuple(range(0, n_tx * n_rx, n_rx)), tuple(range(n_rx)))


def single_target_scene(range_m=20.0, velocity_mps=0.0, azimuth_deg=0.0,
                        amplitude=1.0, snr_db=None, seed=0):
    return Scene(
        targets=(PointTarget(range_m=range_m, velocity_mps=velocity_mps,
                             azimuth_deg=azimuth_deg, amplitude=amplitude),),
        snr_db=snr_db,
        rng_seed=seed,
    )


def random_scene(params, seed, n_targets=12):
    # n_targets: ranges over 4 m to r_max - 4 m, velocities over +-0.9 x 9 x
    # the smaller folded vmax, azimuths over +-40 deg; 20 dB SNR
    rng = np.random.default_rng(seed)
    v_span = 0.9 * 9 * min(folded_vmax(params, 0), folded_vmax(params, 1))
    return Scene(targets=tuple(
        PointTarget(rng.uniform(4.0, params.max_unambiguous_range_m - 4.0),
                    rng.uniform(-v_span, v_span), rng.uniform(-40.0, 40.0))
        for _ in range(n_targets)), snr_db=20.0, rng_seed=int(rng.integers(2**31)))


def peak_cell(power_map):
    d, r = np.unravel_index(np.argmax(power_map), power_map.shape)
    return int(r), int(d)

"""Memory held by the per-frame stages and the cube writer at default params,
and the peak RSS of CLI simulate and of repeated CLI units.  Every per-frame
scratch array stays within ``_SCRATCH_BYTES`` (2 MB), so glibc's dynamic mmap threshold (mallopt(3)) is
never raised past it, and freed temporaries cannot stay resident by the tens
of MB under the next unit's two 151 MB simulator cubes."""

import json
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tdmradar import (
    Scene,
    build_frame_plan,
    build_virtual_array,
    default_geometry,
    default_params,
)
from tdmradar.angle import range_azimuth_map
from tdmradar.config import _SCRATCH_BYTES
from tdmradar.dsp import noncoherent_integrate, range_doppler_map, tdm_demux
from tdmradar.fileio import write_simulated_cube
from tdmradar.simulate import DataCube

from conftest import SUBPROCESS_ENV

ROOT = Path(__file__).resolve().parents[1]

# Four CLI simulate + process --cartesian units at default params in one
# process (argv: configs directory, work directory); prints each unit's
# ru_maxrss in KiB.
_UNITS = """
import contextlib, io, json, resource, sys
from tdmradar import cli
configs, work = sys.argv[1:]
inputs = ["--params", f"{configs}/params.json", "--geometry", f"{configs}/geometry.json"]
peaks = []
for seed in range(4):
    for argv in (["simulate", "--scene", f"{configs}/scene_demo.json", "--seed", str(seed),
                  "--out-a", f"{work}/a.rdc", "--out-b", f"{work}/b.rdc"],
                 ["process", "--in-a", f"{work}/a.rdc", "--in-b", f"{work}/b.rdc",
                  "--out-map", f"{work}/map.ram", "--out-det", f"{work}/det.json", "--cartesian"]):
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv + inputs) != 0:
                sys.exit(f"tdmradar {argv[0]} failed")
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
print(json.dumps(peaks))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the stacking comes from glibc's dynamic mmap threshold")
def test_repeated_cli_units_do_not_stack_freed_heap(tmp_path):
    # On a 2-core glibc 2.36 box the 4th unit peaked 13.4-15.9 MB above the 1st
    # (the Cartesian lookup cached in the 1st unit, the arenas' untrimmed tops),
    # and 42-44 MB with 8-19 MB temporaries; without the NCI blocks, the range
    # rows or the map passes alone, 21-47 MB.
    proc = subprocess.run([sys.executable, "-c", _UNITS, str(ROOT / "configs"), str(tmp_path)],
                          env=SUBPROCESS_ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    peaks_mb = [kib / 1024.0 for kib in json.loads(proc.stdout)]
    assert peaks_mb[3] - peaks_mb[0] <= 20.0, peaks_mb


# CLI simulate of the demo scene at default params in a fresh process (argv:
# configs directory, work directory); prints ru_maxrss in KiB after the
# imports and after the command.
_SIMULATE = """
import contextlib, io, json, resource, sys
from tdmradar import cli
configs, work = sys.argv[1:]
peaks = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["simulate", "--scene", f"{configs}/scene_demo.json", "--seed", "5",
                     "--params", f"{configs}/params.json", "--geometry", f"{configs}/geometry.json",
                     "--out-a", f"{work}/a.rdc", "--out-b", f"{work}/b.rdc"])
if code != 0:
    sys.exit("tdmradar simulate failed")
peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
print(json.dumps(peaks))
"""


def _frame_samples(params):
    n_slots = build_frame_plan(params, 0).chirp_count_total
    return params.n_rx * n_slots * params.adc_samples_per_chirp


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_cli_simulate_holds_no_complex128_frame(tmp_path):
    # Each frame thread holds 12 bytes a sample (float64 noise then S_im, float32
    # real parts), 108 MiB at default params, plus 2 MB buffers.  Holding the two
    # complex128 frames grew ru_maxrss by 284-288 MiB over the imports on a
    # 2-core box; writing each cube straight from the synthesis, by 220 MiB.
    proc = subprocess.run([sys.executable, "-c", _SIMULATE, str(ROOT / "configs"), str(tmp_path)],
                          env=SUBPROCESS_ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    imports, peak = (kib / 1024.0 for kib in json.loads(proc.stdout))
    held_mib = 2 * 12 * _frame_samples(default_params()) / 2**20
    assert peak - imports <= held_mib + 24.0, (imports, peak)


def test_simulated_cube_writer_holds_less_than_a_complex128_frame(tmp_path):
    params = default_params()
    scene = Scene.from_json(ROOT / "configs" / "scene_demo.json")
    _, peak = _traced(write_simulated_cube, scene, params, default_geometry(), 0, 0.0,
                      tmp_path / "a.rdc")
    samples = _frame_samples(params)
    assert peak < 16 * samples  # the complex128 frame, 151 MB
    # the float64 and float32 arrays (113 MB), the two buffers of the
    # imaginary pass, and the signal blocks of 3 targets: 4.6 MiB beyond the arrays
    assert peak <= 12 * samples + 3 * _SCRATCH_BYTES


def _traced(fn, *args, **kwargs):
    """``fn``'s result and the most bytes that Python and numpy held during
    the call beyond those held before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def sub():
    """One demultiplexed default-params frame of complex64 noise, the
    precision ``read_cube`` returns."""
    params = default_params()
    plan = build_frame_plan(params, 0)
    shape = (params.n_rx, plan.chirp_count_total, params.adc_samples_per_chirp)
    noise = np.random.default_rng(3).standard_normal(2 * int(np.prod(shape)), dtype=np.float32)
    return tdm_demux(DataCube(noise.view(np.complex64).reshape(shape), plan, params), plan)


@pytest.fixture(scope="module")
def rd(sub):
    return range_doppler_map(sub, one_sided=True, dtype=np.complex64)


def test_range_doppler_scratch_is_the_budget_and_the_window(sub):
    rd, peak = _traced(range_doppler_map, sub, one_sided=True, dtype=np.complex64)
    n_slow, n_fast = sub.values.shape[2:]
    window = n_slow * n_fast * rd.values.itemsize
    # 128 KiB more for numpy's iteration buffers and the two 1-D windows;
    # one whole TX block of scratch held 8.6 MB beyond the returned cube
    assert peak - rd.values.nbytes <= _SCRATCH_BYTES + window + (128 << 10)


def test_noncoherent_integrate_holds_at_most_two_tx_blocks(rd):
    _, peak = _traced(noncoherent_integrate, rd)
    tx_block = rd.values[0].size * rd.values.real.itemsize  # 2 MB of float32 power
    assert peak <= 2 * tx_block  # |values|^2 of the whole cube: 18.1 MB


def test_range_azimuth_map_peak(rd):
    power = noncoherent_integrate(rd)
    varray = build_virtual_array(default_geometry())
    _, peak = _traced(range_azimuth_map, rd, varray, power)
    # each pass's angle spectra (the budget), their magnitudes, the ULA grid and
    # the 0.5 MB map; half the kept bins per pass held 10.3 MB
    assert peak <= 3 * _SCRATCH_BYTES

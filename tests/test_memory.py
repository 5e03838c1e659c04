"""Memory held by the per-frame stages and the cube writer at default params,
and the peak RSS of CLI simulate, of CLI process and of repeated CLI units.
Every per-frame scratch array stays within ``_SCRATCH_BYTES`` (2 MB), so glibc's
dynamic mmap threshold (mallopt(3)) is never raised past it, and freed
temporaries cannot stay resident by the tens of MB under the next unit's cubes:
the writer's 38 MB of float32 real parts per frame and the reader's two 38 MB
range/Doppler cubes."""

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

# A child's own peak RSS in KiB.  Its ru_maxrss would start at the RSS of
# the pytest process that forked it, so a child smaller than the suite
# would read no growth at all; VmHWM belongs to the child's own memory.
_PEAK_KIB = """
def peak_kib():
    with open("/proc/self/status") as status:
        return int(status.read().split("VmHWM:")[1].split()[0])
"""

# Four CLI simulate + process --cartesian units at default params in one
# process (argv: configs directory, work directory); prints each unit's
# peak RSS in KiB.
_UNITS = _PEAK_KIB + """
import contextlib, io, json, sys
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
    peaks.append(peak_kib())
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


# A fresh process runs CLI simulate of the demo scene at default params, then,
# with "process" as a third argument, CLI process --cartesian of its two cubes
# in a second fresh process (argv: configs directory, work directory[, process]);
# prints the peak RSS in KiB after the imports and after the command.
_CLI = _PEAK_KIB + """
import contextlib, io, json, sys
from tdmradar import cli
configs, work = sys.argv[1:3]
inputs = ["--params", f"{configs}/params.json", "--geometry", f"{configs}/geometry.json"]
if sys.argv[3:] == ["process"]:
    argv = ["process", "--in-a", f"{work}/a.rdc", "--in-b", f"{work}/b.rdc",
            "--out-map", f"{work}/map.ram", "--out-det", f"{work}/det.json", "--cartesian"]
else:
    argv = ["simulate", "--scene", f"{configs}/scene_demo.json", "--seed", "5",
            "--out-a", f"{work}/a.rdc", "--out-b", f"{work}/b.rdc"]
peaks = [peak_kib()]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(argv + inputs)
if code != 0:
    sys.exit(f"tdmradar {argv[0]} failed")
peaks.append(peak_kib())
print(json.dumps(peaks))
"""


def _frame_samples(params):
    n_slots = build_frame_plan(params, 0).chirp_count_total
    return params.n_rx * n_slots * params.adc_samples_per_chirp


def _cli_growth_mib(work, *command):
    """Peak RSS growth over the imports of one fresh-process CLI run, in MiB."""
    proc = subprocess.run([sys.executable, "-c", _CLI, str(ROOT / "configs"), str(work),
                           *command], env=SUBPROCESS_ENV, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    imports, peak = (kib / 1024.0 for kib in json.loads(proc.stdout))
    return peak - imports


@pytest.fixture(scope="module")
def cli_growth_mib(tmp_path_factory):
    """CLI simulate's and then CLI process's growth over their imports."""
    work = tmp_path_factory.mktemp("cli")
    return _cli_growth_mib(work), _cli_growth_mib(work, "process")


@pytest.mark.skipif(sys.platform != "linux", reason="the peak RSS is read from Linux's /proc")
def test_cli_simulate_holds_no_complex128_frame(cli_growth_mib):
    # Each frame thread holds its float32 real parts, 36 MiB at default params,
    # and stages the rest in its output file, plus 2 MB buffers.  Over the
    # imports on a 2-core box: 284-288 MiB holding the two complex128 frames,
    # 220 MiB holding 12 bytes a sample per frame, 80-85 MiB staging in the file.
    held_mib = 2 * 4 * _frame_samples(default_params()) / 2**20
    assert cli_growth_mib[0] <= held_mib + 24.0, cli_growth_mib


@pytest.mark.skipif(sys.platform != "linux", reason="the peak RSS and pagemap are Linux's")
def test_cli_process_releases_each_transformed_rx_block(cli_growth_mib):
    # The two one-sided range/Doppler cubes hold 4 bytes per cube sample, 36
    # MiB each at default params, and each frame thread keeps the mapped pages
    # of one input RX row, 4.5 MiB of complex64 over all 9 TX, until it is
    # transformed.  Over the imports on a 2-core box: 240 MiB keeping every
    # page of both mapped cubes, 115 MiB releasing 4-row blocks, 88 MiB
    # releasing each row with the Cartesian resample after the cubes are freed.
    params = default_params()
    row_bytes = 8 * _frame_samples(params) // params.n_rx
    held_mib = (2 * 4 * _frame_samples(params) + 2 * row_bytes) / 2**20
    assert cli_growth_mib[1] <= held_mib + 16.0, cli_growth_mib


def test_simulated_cube_writer_holds_less_than_a_complex128_frame(tmp_path):
    params = default_params()
    scene = Scene.from_json(ROOT / "configs" / "scene_demo.json")
    _, peak = _traced(write_simulated_cube, scene, params, default_geometry(), 0, 0.0,
                      tmp_path / "a.rdc")
    # the float32 real parts (37.7 MB), the two 2 MB buffers of the first and
    # last passes, one 0.26 MB signal block read from the file and the signal
    # blocks of 3 targets: 9.1 MB beyond the real parts; 12 bytes a sample
    # held 118 MB
    assert peak <= 4 * _frame_samples(params) + 5 * _SCRATCH_BYTES


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
    return tdm_demux(DataCube(noise.view(np.complex64).reshape(shape), plan, params,
                              default_geometry()), plan)


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

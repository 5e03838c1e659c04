"""The benchmark's workloads.  Each turns the benchmark seed into unit
inputs, runs one unit (produce a frame pair, then process it) through
tdmradar's public API or CLI, checks the outputs and scores them against the
simulator's truth targets.  ``seed`` is anything numpy's ``default_rng``
takes; ``score_units`` is how many units of each process are scored.
README.md says why each workload exists."""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

import tdmradar as tr
from tdmradar import cli, fileio, pipeline
from tdmradar.angle import angle_spectrum, collapse_snapshot
from tracing import RANGE_TOL_BINS

AZIMUTH_TOL_DEG = 1.0   # about the 1.2 deg 3 dB beamwidth of the 85-half-wavelength aperture
CARTESIAN_DIMS = (500, 500)  # polar_to_cartesian defaults: 150 m x 150 m in 0.3 m cells

# The tests' small_params: 128 samples, 32 chirps per TX, 9 TX x 16 RX.
SMALL_PARAMS = tr.RadarParams(77e9, 250e6, 20e-6, 128, 32, 9, 16, 21.0e-6, 27.2e-6)


class CheckFailed(Exception):
    """A unit's output failed a correctness check."""


@dataclass
class Score:
    targets: int = 0
    detected: int = 0
    velocity_ok: int = 0
    azimuth_ok: int = 0

    def __iadd__(self, other: "Score") -> "Score":
        self.targets += other.targets
        self.detected += other.detected
        self.velocity_ok += other.velocity_ok
        self.azimuth_ok += other.azimuth_ok
        return self


@dataclass
class UnitResult:
    simulate_s: float
    process_s: float
    score: Score


def truth_bins(targets, params) -> dict:
    """Range bin of each truth target at the middle of frame 0 and of frame 1."""
    bin_m = tr.range_resolution(params)
    bins = {}
    for frame_index, start in ((0, 0.0), (1, params.frame_duration_s(0))):
        middle = start + params.frame_duration_s(frame_index) / 2.0
        bins[frame_index] = [round((t.range_m + t.velocity_mps * middle) / bin_m) for t in targets]
    return bins


def score(targets, detections, params) -> Score:
    """Match truth targets one-to-one to (range bin, velocity, azimuth)
    detections and count the targets detected within +-2 range bins, those
    whose velocity is within half a Doppler bin of the coarser frame, and
    those whose azimuth is within 1 degree."""
    result = Score(targets=len(targets))
    if not detections:
        return result
    v_tol = max(tr.folded_vmax(params, 0), tr.folded_vmax(params, 1)) / params.chirps_per_tx_per_frame
    det = np.asarray(detections, dtype=float)
    gap = np.abs(np.subtract.outer(truth_bins(targets, params)[0], det[:, 0]))
    dv = np.abs(np.subtract.outer([t.velocity_mps for t in targets], det[:, 1]))
    daz = np.abs(np.subtract.outer([t.azimuth_deg for t in targets], det[:, 2]))
    cost = np.where(gap <= RANGE_TOL_BINS, gap + dv / v_tol + daz / AZIMUTH_TOL_DEG, 1e9)
    for row, col in zip(*linear_sum_assignment(cost)):
        if gap[row, col] <= RANGE_TOL_BINS:
            result.detected += 1
            result.velocity_ok += bool(dv[row, col] <= v_tol)
            result.azimuth_ok += bool(daz[row, col] <= AZIMUTH_TOL_DEG)
    return result


def _require_finite(values, what: str) -> None:
    if not np.all(np.isfinite(np.asarray(values, dtype=float))):
        raise CheckFailed(f"non-finite {what}")


def _velocity_span(params) -> float:
    """Half-width of the true-velocity range: 0.9 of the 2M+1 alias
    intervals the unfolding resolves, on the frame with the smaller v_max."""
    order = params.n_tx // 2
    return 0.9 * (2 * order + 1) * min(tr.folded_vmax(params, 0), tr.folded_vmax(params, 1))


class ImagingPair:
    """CLI ``simulate`` then CLI ``process --cartesian``, in-process through
    ``tdmradar.cli.main``, at default_params() on the three targets of
    configs/scene_demo.json; only the noise seed changes per unit."""

    score_units = 1

    def __init__(self, root: Path, seed, workdir: Path, smoke: bool):
        configs = root / "configs"
        self.paths = {"params": configs / "params.json", "geometry": configs / "geometry.json",
                      "scene": configs / "scene_demo.json"}
        if smoke:
            self._write_tiny_inputs(workdir)
        self.params = tr.RadarParams.from_json(self.paths["params"])
        self.scene = tr.Scene.from_json(self.paths["scene"])
        self.files = {tag: workdir / name for tag, name in (
            ("a", "f0.rdc"), ("b", "f1.rdc"), ("map", "map.ram"),
            ("map_b", "map_b.ram"), ("det", "det.json"))}
        self.rng = np.random.default_rng(seed)

    def _write_tiny_inputs(self, workdir: Path) -> None:
        self.paths["params"] = workdir / "params.json"
        self.paths["scene"] = workdir / "scene.json"
        self.paths["params"].write_text(json.dumps(SMALL_PARAMS.to_dict()))
        targets = [{"range_m": r, "velocity_mps": v, "azimuth_deg": az}
                   for r, v, az in ((10.0, 3.0, 10.0), (20.0, -5.0, -20.0), (30.0, 0.0, 3.0))]
        self.paths["scene"].write_text(json.dumps({"targets": targets, "snr_db": 20.0}))

    def next_input(self) -> int:
        return int(self.rng.integers(2**31))

    def truth_bins(self, noise_seed: int) -> dict:
        return truth_bins(self.scene.targets, self.params)

    def _cli(self, *argv) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            raise CheckFailed(f"tdmradar {argv[0]} exited {code}")

    def run(self, noise_seed: int, span) -> UnitResult:
        p, f = self.paths, self.files
        start = time.perf_counter()
        with span("cli.simulate"):
            self._cli("simulate", "--scene", p["scene"], "--params", p["params"],
                      "--geometry", p["geometry"], "--seed", noise_seed,
                      "--out-a", f["a"], "--out-b", f["b"])
        simulated = time.perf_counter()
        with span("cli.process"):
            self._cli("process", "--in-a", f["a"], "--in-b", f["b"], "--params", p["params"],
                      "--geometry", p["geometry"], "--out-map", f["map"],
                      "--out-det", f["det"], "--cartesian")
        processed = time.perf_counter()

        for path in (f["map"], f["map_b"]):
            rmap = fileio.read_map(path)
            if rmap.kind != "cartesian" or rmap.power_db.shape != CARTESIAN_DIMS:
                raise CheckFailed(f"{path.name}: {rmap.kind} map of {rmap.power_db.shape}")
            _require_finite(rmap.power_db, "map value")
        with open(f["det"], encoding="utf-8") as fh:
            records = json.load(fh)["detections"]
        keys = ("range_m", "velocity_mps", "azimuth_deg", "power_db")
        _require_finite([[r[k] for k in keys] for r in records], "detection field")
        result = score(self.scene.targets, [(r["range_bin"], r["velocity_mps"], r["azimuth_deg"])
                                            for r in records], self.params)
        if result.detected < result.targets:
            raise CheckFailed(f"{result.targets - result.detected} truth targets not detected")
        return UnitResult(simulated - start, processed - simulated, result)


class DenseScenes:
    """simulate_frame_pair then run_pipeline, in memory, at the tests'
    small_params on 12-target scenes at 20 dB SNR."""

    score_units = 16
    n_targets = 12

    def __init__(self, root: Path, seed, workdir: Path, smoke: bool):
        self.params = SMALL_PARAMS
        self.geometry = tr.default_geometry()
        self.rng = np.random.default_rng(seed)
        self.r_max = self.params.max_unambiguous_range_m
        self.v_span = _velocity_span(self.params)

    def next_input(self):
        rng = self.rng
        targets = tuple(tr.PointTarget(rng.uniform(4.0, self.r_max - 4.0),
                                       rng.uniform(-self.v_span, self.v_span),
                                       rng.uniform(-40.0, 40.0))
                        for _ in range(self.n_targets))
        return tr.Scene(targets=targets, snr_db=20.0, rng_seed=int(rng.integers(2**31)))

    def truth_bins(self, scene) -> dict:
        return truth_bins(scene.targets, self.params)

    def run(self, scene, span) -> UnitResult:
        start = time.perf_counter()
        frame_a, frame_b = tr.simulate_frame_pair(scene, self.params, self.geometry)
        simulated = time.perf_counter()
        result = tr.run_pipeline(frame_a, frame_b, self.params, self.geometry)
        processed = time.perf_counter()

        _require_finite(result.map_a.power_db, "frame-a map value")
        _require_finite(result.map_b.power_db, "frame-b map value")
        _require_finite([(d.range_m, d.velocity_mps, d.azimuth_deg, d.power_db)
                         for d in result.detections], "detection field")
        dets = [(d.range_bin, d.velocity_mps, d.azimuth_deg) for d in result.detections]
        return UnitResult(simulated - start, processed - simulated,
                          score(scene.targets, dets, self.params))


class SnrSweep:
    """Detection-only chain through the public stage functions, one target
    per trial, SNR cycling through the ladder below."""

    score_units = 64
    snrs_db = (10.0, 0.0, -3.0, -6.0)
    # Acceptance criterion 5's waveform and CFAR.
    params = tr.RadarParams(77e9, 250e6, 20e-6, 64, 32, 9, 16, 21.0e-6, 27.2e-6)
    cfar = tr.CfarConfig(training=(6, 4), guard=(3, 2), pfa=1e-3)

    def __init__(self, root: Path, seed, workdir: Path, smoke: bool):
        self.geometry = tr.default_geometry()
        self.varray = tr.build_virtual_array(self.geometry)
        self.rng = np.random.default_rng(seed)
        self.trials = 0
        self.v_span = _velocity_span(self.params)

    def next_input(self):
        rng = self.rng
        snr_db = self.snrs_db[self.trials % len(self.snrs_db)]
        self.trials += 1
        target = tr.PointTarget(rng.uniform(4.0, 17.0), rng.uniform(-self.v_span, self.v_span),
                                rng.uniform(-30.0, 30.0))
        return tr.Scene(targets=(target,), snr_db=snr_db, rng_seed=int(rng.integers(2**31)))

    def truth_bins(self, scene) -> dict:
        return truth_bins(scene.targets, self.params)

    def run(self, scene, span) -> UnitResult:
        p = self.params
        start = time.perf_counter()
        frame_a, frame_b = tr.simulate_frame_pair(scene, p, self.geometry)
        simulated = time.perf_counter()
        rds, dets = [], []
        for cube in (frame_a, frame_b):
            rd = tr.range_doppler_map(tr.tdm_demux(cube, cube.plan))
            rds.append(rd)
            dets.append(tr.cfar_ca2d(tr.noncoherent_integrate(rd), self.cfar,
                                     velocity_axis=rd.velocity_axis,
                                     frame_index=cube.plan.frame_index))
        unfolded = None
        if dets[0]:
            det_a = max(dets[0], key=lambda d: d.power_db)
            near = [d for d in dets[1] if abs(d.range_bin - det_a.range_bin) <= RANGE_TOL_BINS]
            det_b = max(near, key=lambda d: d.power_db) if near else None
            unfolded = pipeline.unfold_detection(det_a, det_b, rds[0], rds[1], self.varray, p)
        processed = time.perf_counter()

        found = []
        if unfolded is not None:
            velocity, snapshot = unfolded
            _require_finite([velocity, det_a.power_db], "unfolded detection")
            # Azimuth of the compensated snapshot, outside the timed chain.
            azimuth = angle_spectrum(*collapse_snapshot(snapshot)).peak_azimuth_deg
            found.append((det_a.range_bin, velocity, azimuth))
        return UnitResult(simulated - start, processed - simulated, score(scene.targets, found, p))


WORKLOADS = {"imaging_pair": ImagingPair, "dense_scenes": DenseScenes, "snr_sweep": SnrSweep}

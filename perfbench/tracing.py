"""Span tracing of tdmradar from outside the package.

While a traced unit runs, each public stage function is replaced by a timing
wrapper at the module attribute its caller looks up (``tdmradar.pipeline.
range_doppler_map`` for ``run_pipeline``, ``tdmradar.range_doppler_map`` for
the benchmark's own calls), so the traced code path is the untraced one.
Afterwards the originals are put back.  A name that no longer exists is
skipped, and the layer metrics that need it are left out of the result.

Spans (name, unit, start, end, parent) are kept in memory and written once,
at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
from collections import defaultdict

# A detection within this many range bins of a truth target is that target's.
RANGE_TOL_BINS = 2

# Spans opened by the benchmark itself around its CLI calls.
BENCH_SPANS = ("cli.simulate", "cli.process")


def _observe_rd(tracer, args, kwargs, rd):
    tracer.counts["rd_bytes"] = max(tracer.counts["rd_bytes"], rd.values.nbytes)
    tracer.counts["range_bins"] += rd.n_range
    tracer.counts["useful_bins"] += int((rd.range_axis < rd.params.max_unambiguous_range_m).sum())


def _observe_cfar(tracer, args, kwargs, detections):
    truth = tracer.truth_bins.get(kwargs.get("frame_index", 0), ())
    tracer.counts["cfar_detections"] += len(detections)
    tracer.counts["cfar_false_alarms"] += sum(
        all(abs(d.range_bin - b) > RANGE_TOL_BINS for b in truth) for d in detections)


def _observe_unfold(tracer, args, kwargs, result):
    det_b = args[1] if len(args) > 1 else kwargs.get("det_b")
    tracer.counts["unfold_calls"] += 1
    tracer.counts["unmatched"] += det_b is None


def _observe_crt(tracer, args, kwargs, narrowed):
    tracer.counts["crt_calls"] += 1
    tracer.counts["crt_empty"] += narrowed.size == 0


def _observe_resolve(tracer, args, kwargs, velocity):
    candidates = args[1] if len(args) > 1 else kwargs["candidates"]
    tracer.counts["resolve_calls"] += 1
    tracer.counts["candidates"] += len(candidates)


def _observe_ram(tracer, args, kwargs, rmap):
    tracer.counts["ram_bytes"] = max(tracer.counts["ram_bytes"], rmap.power_db.nbytes)


def _observe_write_cube(tracer, args, kwargs, _):
    # float32 (re, im) pairs on disk, computed from the cube's shape
    tracer.counts["cube_bytes"] = max(tracer.counts["cube_bytes"], args[0].samples.size * 8)


# span name -> (attributes callers look up, observer of the call's result)
STAGES = {
    "simulate.simulate_frame": (["tdmradar.simulate.simulate_frame"], None),
    "fileio.write_cube": (["tdmradar.fileio.write_cube"], _observe_write_cube),
    "fileio.read_cube": (["tdmradar.fileio.read_cube"], None),
    "fileio.write_map": (["tdmradar.fileio.write_map"], None),
    "pipeline.run_pipeline": (["tdmradar.cli.run_pipeline", "tdmradar.run_pipeline"], None),
    "dsp.range_doppler_map": (["tdmradar.pipeline.range_doppler_map",
                               "tdmradar.range_doppler_map"], _observe_rd),
    "dsp.noncoherent_integrate": (["tdmradar.pipeline.noncoherent_integrate",
                                   "tdmradar.noncoherent_integrate"], None),
    "dsp.cfar_ca2d": (["tdmradar.pipeline.cfar_ca2d", "tdmradar.cfar_ca2d"], _observe_cfar),
    "pipeline.unfold_detection": (["tdmradar.pipeline.unfold_detection"], _observe_unfold),
    "unfold.crt_intersect": (["tdmradar.pipeline.crt_intersect"], _observe_crt),
    "unfold.resolve_velocity": (["tdmradar.pipeline.resolve_velocity"], _observe_resolve),
    "angle.collapse_snapshot": (["tdmradar.pipeline.collapse_snapshot"], None),
    "angle.angle_spectrum": (["tdmradar.pipeline.angle_spectrum"], None),
    "angle.range_azimuth_map": (["tdmradar.pipeline.range_azimuth_map"], _observe_ram),
    "angle.polar_to_cartesian": (["tdmradar.pipeline.polar_to_cartesian"], None),
}

# metric -> spans whose time per unit it adds up
TIMED = {
    "simulate.simulate_frame_s": ("simulate.simulate_frame",),
    "fileio.write_cube_s": ("fileio.write_cube",),
    "fileio.read_cube_s": ("fileio.read_cube",),
    "fileio.write_map_s": ("fileio.write_map",),
    "dsp.range_doppler_map_s": ("dsp.range_doppler_map",),
    "dsp.noncoherent_integrate_s": ("dsp.noncoherent_integrate",),
    "dsp.cfar_ca2d_s": ("dsp.cfar_ca2d",),
    "pipeline.unfold_detection_s": ("pipeline.unfold_detection",),
    "unfold.resolve_velocity_s": ("unfold.resolve_velocity",),
    "angle.range_azimuth_map_s": ("angle.range_azimuth_map",),
    "angle.snapshot_beamform_s": ("angle.collapse_snapshot", "angle.angle_spectrum"),
    "angle.polar_to_cartesian_s": ("angle.polar_to_cartesian",),
}

# metric -> span whose time not covered by child spans it reports
SELF_TIMED = {
    "pipeline.run_pipeline.self_s": "pipeline.run_pipeline",
    "cli.process.self_s": "cli.process",
}

# metric -> (unit, better); every metric a traced run can emit
LAYER_METRICS = {
    **{name: ("s", "lower") for name in (*TIMED, *SELF_TIMED)},
    "fileio.cube_bytes": ("bytes", "lower"),
    "dsp.rd_bytes": ("bytes", "lower"),
    "dsp.range_bins_useful_ratio": ("ratio", "higher"),
    "dsp.cfar_detections": ("count", "higher"),
    "dsp.cfar_false_alarms": ("count", "lower"),
    "pipeline.unmatched_ratio": ("ratio", "lower"),
    "unfold.crt_empty_ratio": ("ratio", "lower"),
    "unfold.candidates_per_detection": ("count", "lower"),
    "angle.ram_bytes": ("bytes", "lower"),
    "trace_overhead_ratio": ("ratio", "lower"),
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []           # [name, unit, start, end, parent index]
        self.units = []
        self.counts = defaultdict(float)
        self.truth_bins = {}
        self.available = set(BENCH_SPANS)
        self._unit = None
        self._stack = []
        self._originals = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, self._unit, time.perf_counter() - self.t0, None, parent]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[3] = time.perf_counter() - self.t0
            self._stack.pop()

    @contextlib.contextmanager
    def unit(self, unit_id: int, truth_bins: dict):
        """One traced unit: wrappers are installed on entry and removed on
        exit; the unit counts only if it completes.  ``truth_bins`` maps
        frame index to the truth targets' range bins, for false alarms."""
        self._unit, self.truth_bins = unit_id, truth_bins
        self._install()
        try:
            yield
        finally:
            self._uninstall()
            self._unit = None
        self.units.append(unit_id)

    def _wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return traced

    def _install(self) -> None:
        for name, (attributes, observe) in STAGES.items():
            for dotted in attributes:
                module_name, attr = dotted.rsplit(".", 1)
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                self._originals.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, observe))
                self.available.add(name)

    def _uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _median_per_unit(self, durations, keep) -> float:
        """Median over traced units of the kept span durations summed per unit."""
        totals = {unit: 0.0 for unit in self.units}
        for (_, unit, *_), duration, kept in zip(self.spans, durations, keep):
            if kept and unit in totals:
                totals[unit] += duration
        return statistics.median(totals.values()) if totals else 0.0

    def _per_unit(self, names, self_time=False) -> float:
        """Median per unit of the time in the named spans (with
        ``self_time``, minus the time covered by their children)."""
        durations = self._self_times() if self_time else [e - s for _, _, s, e, _ in self.spans]
        return self._median_per_unit(durations, [span[0] in names for span in self.spans])

    def _self_times(self) -> list:
        self_times = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                self_times[parent] -= end - start
        return self_times

    def self_time_sum(self, exclude_roots) -> float:
        """Median per unit of the summed self times of every span outside
        the trees rooted at ``exclude_roots``: the stage time the trace
        accounts for in the rest of the unit."""
        top = []
        for name, _, _, _, parent in self.spans:
            top.append(name if parent is None else top[parent])
        return self._median_per_unit(self._self_times(), [root not in exclude_roots for root in top])

    def layer_metrics(self, overhead_ratio: float) -> dict:
        """Per-layer metrics over the traced units.  A metric whose stage
        could not be wrapped is absent."""
        n_units = max(len(self.units), 1)
        c = self.counts
        values = {name: (self._per_unit(spans), spans) for name, spans in TIMED.items()}
        values.update({name: (self._per_unit((span,), self_time=True), (span,))
                       for name, span in SELF_TIMED.items()})
        values.update({
            "fileio.cube_bytes": (c["cube_bytes"], ("fileio.write_cube",)),
            "dsp.rd_bytes": (c["rd_bytes"], ("dsp.range_doppler_map",)),
            "dsp.range_bins_useful_ratio": (_ratio(c["useful_bins"], c["range_bins"]),
                                            ("dsp.range_doppler_map",)),
            "dsp.cfar_detections": (c["cfar_detections"] / n_units, ("dsp.cfar_ca2d",)),
            "dsp.cfar_false_alarms": (c["cfar_false_alarms"] / n_units, ("dsp.cfar_ca2d",)),
            "pipeline.unmatched_ratio": (_ratio(c["unmatched"], c["unfold_calls"]),
                                         ("pipeline.unfold_detection",)),
            "unfold.crt_empty_ratio": (_ratio(c["crt_empty"], c["crt_calls"]),
                                       ("unfold.crt_intersect",)),
            "unfold.candidates_per_detection": (_ratio(c["candidates"], c["resolve_calls"]),
                                                ("unfold.resolve_velocity",)),
            "angle.ram_bytes": (c["ram_bytes"], ("angle.range_azimuth_map",)),
            "trace_overhead_ratio": (overhead_ratio, ()),
        })
        return {name: value for name, (value, needs) in values.items()
                if all(span in self.available for span in needs)}

    def write(self, path, env: dict) -> None:
        keys = ("name", "unit", "start", "end", "parent")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)


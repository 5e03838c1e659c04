"""The perfbench tracer wraps stages by the attribute names their callers look
up.  A renamed or bypassed name makes its layer metric read 0 without any
error, so every name must resolve, and every ``tdmradar.pipeline.*`` name
must be called by ``run_pipeline``."""

import importlib
import sys
from pathlib import Path

from tdmradar import pipeline, run_pipeline, simulate_frame_pair

from conftest import single_target_scene

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import tracing  # noqa: E402
sys.path.remove(str(PERFBENCH))

ATTRIBUTES = [dotted for attributes, _ in tracing.STAGES.values() for dotted in attributes]


def test_every_traced_attribute_resolves():
    for dotted in ATTRIBUTES:
        module, attr = dotted.rsplit(".", 1)
        assert hasattr(importlib.import_module(module), attr), dotted


def test_run_pipeline_calls_every_traced_pipeline_name(small_params, geometry, monkeypatch):
    names = [d.rsplit(".", 1)[1] for d in ATTRIBUTES if d.startswith("tdmradar.pipeline.")]
    called = set()  # set.add is atomic, and frame b's stages run on the worker thread

    def spy(name, fn):
        def counted(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(pipeline, name, spy(name, getattr(pipeline, name)))
    scene = single_target_scene(range_m=20.0, velocity_mps=3.0, azimuth_deg=10.0, snr_db=20.0)
    a, b = simulate_frame_pair(scene, small_params, geometry)
    result = run_pipeline(a, b, small_params, geometry, cartesian=True)
    assert len(result.detections) == 1
    assert sorted(set(names) - called) == []

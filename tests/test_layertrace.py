"""The benchmark's layer tracer (perfbench/layertrace.py) against the
package: every function and method it names is wrapped at every binding
and restored after, so renaming or deleting a traced function fails
here as well as in the benchmark's own tests."""

import importlib.util
import os
import sys

import reesgor
from reesgor import corpus

LAYERTRACE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "layertrace.py")


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(mod, attr):
    obj = sys.modules["reesgor." + mod]
    for name in attr.split("."):
        obj = getattr(obj, name)
    return obj


def test_layer_tracer_wraps_every_target_and_restores_it():
    layertrace = _layertrace()
    plain = {t: _target(*t) for t in layertrace.TARGETS}
    intersect = reesgor.resolutions.intersect_ideals
    assert intersect is reesgor.idealops.intersect
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        for t, fn in plain.items():
            assert _target(*t).__wrapped__ is fn, t
        assert reesgor.resolutions.intersect_ideals.__wrapped__ is intersect
        A, q = corpus.build_two_planes()
        data = reesgor.s2_construct(A, reesgor.filter_regular_pair(A, q))
        assert reesgor.h1_socle(A, data) == 1
    finally:
        tracer.uninstall()
    assert {t: _target(*t) for t in layertrace.TARGETS} == plain
    assert reesgor.resolutions.intersect_ideals is intersect
    for name in ("s2.s2_construct", "resolutions.ModulePresentation.length",
                 "resolutions.ModulePresentation.socle_dim"):
        assert tracer.stats[name]["calls"] >= 1, name

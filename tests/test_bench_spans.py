"""bench/spans.py wraps twinpol functions by name from outside the package:
every target must still exist, uninstalling must restore every original, and
the counts the spans read must be the ones the package reports."""

import importlib.util
import sys
from pathlib import Path

import pytest

import twinpol.cli  # imports every module the spans trace

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans_under_test", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(mod_name, attr):
    owner = sys.modules[mod_name]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        return owner.__dict__[attr]
    return getattr(owner, attr)


def _package_state():
    """(module name, attribute) -> object, over every twinpol module."""
    return {(name, key): val for name, mod in sys.modules.items()
            if name == "twinpol" or name.startswith("twinpol.")
            for key, val in vars(mod).items()}


def test_every_span_target_resolves():
    spans = _load_spans()
    for mod_name, attr, _ in spans.TARGETS:
        target = _resolve(mod_name, attr)
        assert callable(getattr(target, "__func__", target)), (mod_name, attr)


def test_tracer_install_then_uninstall_restores_the_package():
    spans = _load_spans()
    before = _package_state()
    targets = {(m, a): _resolve(m, a) for m, a, _ in spans.TARGETS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (mod_name, attr), orig in targets.items():
            assert _resolve(mod_name, attr) is not orig, (mod_name, attr)
        # names imported into other modules are wrapped too
        assert twinpol.cli.static_stick_spectrum is not targets[
            ("twinpol.quantum", "static_stick_spectrum")]
    finally:
        tracer.uninstall()
    after = _package_state()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert all(_resolve(m, a) is orig for (m, a), orig in targets.items())


@pytest.mark.parametrize("light", ["classical", "quantum"])
def test_integrate_span_counts_the_rhs_evaluations(model3, cav, pulse, light):
    """integrators.rhs_evals sums the integrate span's counted rhs calls; a
    kicked run must report the same nonzero count in its own meta."""
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        if light == "classical":
            traj = twinpol.classical.propagate_classical(model3, cav, pulse, 0, t_end=200.0,
                                                         dt=1.0, record_stride=8)
        else:
            traj = twinpol.quantum.propagate_quantum(model3, cav, pulse, (0, 0), t_end=400.0,
                                                     dt=1.0, record_stride=8)
    finally:
        tracer.uninstall()
    counted = [s["rhs_evals"] for s in tracer.spans if s["name"] == "integrators.integrate"]
    assert counted == [traj.meta["rhs_evals"]]
    assert counted[0] > 0

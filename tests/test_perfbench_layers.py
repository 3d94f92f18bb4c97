"""perfbench's traced run wraps program functions by name.

``perfbench/layers.py`` patches methods and module functions at the
names their callers resolve (``SimClock.advance``, ``SecureChip.charge``,
``FlashTranslationLayer.read``, ...).  A rename would otherwise only
fail the benchmark's own smoke run; this test fails first.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_resolves_every_wrapped_name_and_uninstall_restores():
    tracer = load_layers().LayerTracer()
    originals = {}
    try:
        tracer.install()
        assert tracer._patches
        for owner, attr, raw in tracer._patches:
            # A name wrapped twice records the first wrapper as the raw
            # of the second patch; the original is the first raw seen.
            originals.setdefault((owner, attr), raw)
            assert owner.__dict__[attr] is not raw, f"{owner!r}.{attr}"
    finally:
        tracer.uninstall()
    for (owner, attr), raw in originals.items():
        assert owner.__dict__[attr] is raw, f"{owner!r}.{attr} not restored"


def test_the_hot_path_names_are_wrapped():
    from repro.hardware.chip import SecureChip
    from repro.hardware.clock import SimClock
    from repro.hardware.ftl import FlashTranslationLayer

    tracer = load_layers().LayerTracer()
    try:
        tracer.install()
        wrapped = {(owner, attr) for owner, attr, _raw in tracer._patches}
    finally:
        tracer.uninstall()
    assert (SimClock, "advance") in wrapped
    assert (SecureChip, "charge") in wrapped
    assert (FlashTranslationLayer, "read") in wrapped

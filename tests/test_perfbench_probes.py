"""The benchmark's traced run patches named functions of the package.

``perfbench/tracer.py`` finds each probe by module and attribute name, so a
rename or a deletion of a probed function only shows as a failed traced
benchmark run. Here the tracer is installed and uninstalled without running
anything: every probe must resolve, and every patch must be undone.
"""

import importlib
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sites(tracer_module):
    modules = [importlib.import_module(f"bitorsion.{m}") for m in tracer_module.SITES]
    return modules + [importlib.import_module("bitorsion")]


def _owner(module, attr):
    """The object holding a probed attribute, and the attribute's own name."""
    if "." in attr:
        cls_name, method = attr.split(".")
        return getattr(module, cls_name), method
    return module, attr


def test_every_probe_patches_and_is_restored(tracer_module):
    modules = _sites(tracer_module)
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    for _, home, attr, _ in tracer_module.PROBES:
        owner, name = _owner(by_name[home], attr)
        assert hasattr(owner, name), f"probe {home}.{attr} names nothing"
    before = {m.__name__: dict(vars(m)) for m in modules}
    methods = {}
    for _, home, attr, _ in tracer_module.PROBES:
        if "." in attr:
            owner, method = _owner(by_name[home], attr)
            methods[owner, method] = vars(owner)[method]
    criteria = by_name["acceptance"].CRITERIA

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert len(tracer._patches) > len(tracer_module.PROBES)
        for name, home, attr, _ in tracer_module.PROBES:
            owner, method = _owner(by_name[home], attr)
            patched = getattr(owner, method)
            assert getattr(patched, "__wrapped__", None) is not None, f"{name} not patched"
        assert by_name["acceptance"].CRITERIA is not criteria
        assert len(by_name["acceptance"].CRITERIA) == len(criteria)
    finally:
        tracer.uninstall()

    assert by_name["acceptance"].CRITERIA is criteria
    for module in modules:
        now, then = vars(module), before[module.__name__]
        changed = [key for key, value in then.items() if now.get(key) is not value]
        assert changed == [], f"{module.__name__} not restored: {changed}"
    for (owner, method), original in methods.items():
        assert vars(owner)[method] is original

"""Every function the benchmark's traced run wraps still exists.

``perfbench/layers.py`` names its trace targets by module and attribute; a
refactor that renames or drops one should fail here rather than in a
benchmark run.
"""

import importlib
import importlib.util
import pathlib

import pytest

LAYERS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TARGETS


@pytest.mark.parametrize(
    "module_name, attr", [(module, attr) for module, attr, _, _ in load_targets()]
)
def test_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        # the tracer rebinds the method on the class that defines it
        class_name, method = attr.split(".")
        assert callable(vars(getattr(module, class_name)).get(method)), attr
    else:
        assert callable(getattr(module, attr, None)), attr

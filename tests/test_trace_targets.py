"""Every function the benchmark's traced run wraps still exists.

``perfbench/layers.py`` names its trace targets by module and attribute; a
refactor that renames or drops one, or breaks a binding or call the
benchmark relies on, should fail here by name. The counts it pins for each
workload are checked by ``perfbench/tests/test_counters.py``.
"""

import importlib
import importlib.util
import pathlib

import pytest

from liftlab import amalgam, experiments, hawaiian, lifting, profinite

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


def test_by_name_bindings_are_the_defining_functions():
    # the tracer patches these bindings too; a local redefinition would
    # escape it, and the pinned call counts would drop
    assert amalgam.glue_forward is profinite.glue_forward
    assert amalgam.glue_backward is profinite.glue_backward
    assert hawaiian.deck_search is lifting.deck_search
    assert experiments.rigidity_witness is profinite.rigidity_witness


def test_glue_interface_the_workloads_call():
    glue = profinite.default_glue()
    res = profinite.glue_forward(glue, profinite.glue_backward(glue, "0120"))
    assert (res.digits, res.leftover) == ("0120", "")
    # the tracer's pair counter reads the model's precision
    assert amalgam.AmalgamModel(3).binary_precision == 3

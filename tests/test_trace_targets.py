"""Every function the benchmark's traced run wraps still exists, and the
`covers` and `shift` counts it pins still hold.

``perfbench/layers.py`` names its trace targets by module and attribute; a
refactor that renames or drops one, or breaks a binding or call the
benchmark relies on, should fail here rather than in a benchmark run (the
tier-1 suite does not collect ``perfbench/tests``).
"""

import importlib
import importlib.util
import pathlib

import pytest

from liftlab import amalgam, covers, experiments, hawaiian, lifting, profinite, symdyn

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


def test_shift_workload_counters(monkeypatch):
    # the counters that perfbench/layers.py pins for the shift workload; the
    # witness searches call the module-level shift and word_metric once per step
    calls = {"shift": 0, "word_metric": 0, "pairs_checked": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(symdyn, name, wrapper)

    counted("shift", symdyn.shift)
    counted("word_metric", symdyn.word_metric)
    experiments.run_mt_dynamics(16, 5, 512, 192)
    assert (calls["shift"], calls["word_metric"]) == (22_774, 11_389)

    modulus = symdyn.equicontinuity_modulus

    def observed(tower):
        table = modulus(tower)
        calls["pairs_checked"] += sum(row["pairs_checked"] for row in table)
        return table

    monkeypatch.setattr(symdyn, "equicontinuity_modulus", observed)
    experiments.run_tower_equicontinuity(10, 20, 20260808)
    assert calls["pairs_checked"] == 8_301


def test_covers_workload_counters(monkeypatch):
    # the counters that perfbench/layers.py pins for the covers workload:
    # covers-obstruction at --max-degree 7, then the census (the centralizer
    # of every class at degrees 2..7 and four full-cycle families)
    calls = {"classes": 0, "full_cycle": 0, "compatible": 0, "decks": 0, "results": 0}

    def yields(name, key):
        generate = getattr(covers, name)

        def wrapper(*args):
            for rep in generate(*args):
                calls[key] += 1
                yield rep

        monkeypatch.setattr(covers, name, wrapper)

    yields("iter_connected_coverings", "classes")
    yields("full_cycle_coverings", "full_cycle")
    compatible, search = covers.cyclic_quotient_compatible, lifting.deck_search

    def counted_compatible(*args):
        calls["compatible"] += 1
        return compatible(*args)

    def counted_search(*args):
        calls["decks"] += 1
        found = search(*args)
        calls["results"] += len(found)
        return found

    monkeypatch.setattr(covers, "cyclic_quotient_compatible", counted_compatible)
    monkeypatch.setattr(lifting, "deck_search", counted_search)
    status, _ = experiments.run_covers_obstruction(7)
    assert status == "pass"
    for d in range(2, 8):
        for rep in covers.iter_connected_coverings(d):
            lifting.deck_search(rep.as_system())
            if covers.cyclic_quotient_compatible(rep, "a", 2):
                covers.cyclic_quotient_compatible(rep, "b", 3)
    for d, petal in ((2, "a"), (3, "b"), (4, "a"), (8, "a")):
        other, base = ("b", 3) if petal == "a" else ("a", 2)
        for rep in covers.full_cycle_coverings(d, petal):
            covers.cyclic_quotient_compatible(rep, other, base)
    assert calls == {
        "classes": 9_840,
        "full_cycle": 5_116,
        "compatible": 14_980,
        "decks": 4_920,
        "results": 5_187,
    }

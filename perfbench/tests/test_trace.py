import sys
import types

import pytest

import liftlab.cli  # noqa: F401  (loads every liftlab module)
import tracer
from liftlab import amalgam, experiments, hawaiian, lifting, profinite
from layers import TARGETS


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    spans = tracer.Spans(clock)
    spans.enter()  # outer at 0
    clock.now = 1.0
    spans.enter()  # child at 1
    clock.now = 2.0
    spans.enter()  # grandchild at 2
    clock.now = 2.5
    spans.exit("grandchild")
    clock.now = 3.0
    spans.exit("child")
    clock.now = 4.0
    spans.enter()  # second child at 4
    clock.now = 5.0
    spans.exit("child")
    clock.now = 10.0
    spans.exit("outer")
    assert spans.self_s["grandchild"] == pytest.approx(0.5)
    assert spans.self_s["child"] == pytest.approx(1.5 + 1.0)
    assert spans.self_s["outer"] == pytest.approx(10.0 - 2.0 - 1.0)
    assert spans.calls == {"outer": 1, "child": 2, "grandchild": 1}
    total = sum(spans.self_s.values())
    assert total == pytest.approx(10.0)  # self times partition the outer span


@pytest.fixture
def fake_layer():
    """A module with a generator and a caller that imported it by name."""
    clock = FakeClock()
    layer = types.ModuleType("fake_layer")

    def produce(n):
        for i in range(n):
            clock.now += 2.0  # work done by the generator
            yield i

    def square(x):
        clock.now += 0.25
        return x * x

    layer.produce, layer.square = produce, square
    caller = types.ModuleType("fake_caller")
    caller.produce = produce
    caller.square = square
    sys.modules["fake_layer"], sys.modules["fake_caller"] = layer, caller
    yield clock, layer, caller
    del sys.modules["fake_layer"], sys.modules["fake_caller"]


def test_generator_time_excludes_the_consumer(fake_layer):
    clock, layer, caller = fake_layer
    targets = (
        ("fake_layer", "produce", "fake.produce", tracer.GEN),
        ("fake_layer", "square", "fake.square", tracer.TIME),
    )
    with tracer.Tracer(targets, clock) as active:
        assert caller.produce is layer.produce and hasattr(caller.produce, "__wrapped__")
        for item in caller.produce(3):
            clock.now += 100.0  # consumer work between yields
            caller.square(item)
        spans = active.spans
        assert spans.self_s["fake.produce"] == pytest.approx(6.0)
        assert spans.self_s["fake.square"] == pytest.approx(0.75)
        assert spans.extra["fake.produce.yielded"] == 3
        assert spans.calls["fake.square"] == 3


def test_every_binding_is_patched_and_restored():
    def snapshot():
        return {
            (name, key): value
            for name, module in list(sys.modules.items())
            if name.startswith("liftlab")
            for key, value in vars(module).items()
        }

    before = snapshot()
    init = lifting.MonodromySystem.__init__
    with tracer.Tracer():
        # names imported by name into other modules are wrapped there too
        for module, name in (
            (amalgam, "glue_forward"),
            (amalgam, "glue_backward"),
            (hawaiian, "deck_search"),
            (experiments, "rigidity_witness"),
            (profinite, "glue_forward"),
        ):
            assert hasattr(getattr(module, name), "__wrapped__"), (module, name)
        assert sys.modules["liftlab"].deck_search is hawaiian.deck_search
        assert lifting.MonodromySystem.__init__ is not init
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert lifting.MonodromySystem.__init__ is init


def test_restores_when_a_target_is_missing():
    before = profinite.glue_forward
    bad = (TARGETS[0], ("liftlab.profinite", "glue_forward", "x", tracer.TIME),
           ("liftlab.profinite", "no_such_function", "y", tracer.TIME))
    with pytest.raises(AttributeError):
        with tracer.Tracer(bad):
            pass
    assert profinite.glue_forward is before
    assert not hasattr(liftlab.cli.main, "__wrapped__")

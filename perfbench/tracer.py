"""Tracing from outside: wrap liftlab's public functions, then restore them.

Every place a traced function is bound is patched, not only its defining
module: ``amalgam`` imports ``glue_forward`` and ``glue_backward`` by name,
``hawaiian`` imports ``deck_search``, ``experiments`` imports
``rigidity_witness``, and the package re-exports many names. Spans are
aggregated in memory into self time and call counts per span name.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

from layers import COUNT, GEN, METRICS, TARGETS, TIME


class Spans:
    """Self-time accounting for nested spans.

    A span's self time is its duration minus the part of it that its child
    spans cover. ``clock`` is injectable so the arithmetic can be tested on
    synthetic times.
    """

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self._open: list[list[float]] = []  # [start, time covered by children]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.extra: Counter[str] = Counter()

    def enter(self) -> None:
        self._open.append([self.clock(), 0.0])

    def exit(self, name: str) -> None:
        start, children = self._open.pop()
        duration = self.clock() - start
        self.self_s[name] += duration - children
        self.calls[name] += 1
        if self._open:
            self._open[-1][1] += duration


# Observers add derived counters from a call's arguments and result.

def _observe_to_json(spans, args, result):
    spans.extra["reports.bytes"] += len(result)  # json.dumps output is ASCII


def _observe_deck_search(spans, args, result):
    spans.extra["lifting.deck_search.results"] += len(result)


def _observe_translation(spans, args, result):
    spans.extra["amalgam.translation_deck_search.pairs"] += 4 ** args[0].binary_precision
    spans.extra["amalgam.translation_deck_search.survivors"] += len(result)


def _observe_modulus(spans, args, result):
    spans.extra["symdyn.equicontinuity_modulus.pairs_checked"] += sum(
        row["pairs_checked"] for row in result
    )


OBSERVERS = {
    "reports.to_json": _observe_to_json,
    "lifting.deck_search": _observe_deck_search,
    "amalgam.translation_deck_search": _observe_translation,
    "symdyn.equicontinuity_modulus": _observe_modulus,
}


def _timed(spans: Spans, name: str, fn):
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        spans.enter()
        try:
            result = fn(*args, **kwargs)
        finally:
            spans.exit(name)
        if observe is not None:
            observe(spans, args, result)
        return result

    return wrapper


def _counted(spans: Spans, name: str, fn):
    calls = spans.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _generator(spans: Spans, name: str, fn):
    """Time each ``next()``; charge iter_connected_coverings per degree."""

    @functools.wraps(fn)
    def wrapper(degree, *args, **kwargs):
        span = f"{name}.d{degree}" if name == "covers.iter_connected_coverings" else name
        inner = fn(degree, *args, **kwargs)
        if name == "covers.full_cycle_coverings":
            spans.extra["covers.full_cycle_coverings.tried"] += math.factorial(degree)
        try:
            while True:
                spans.enter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    spans.exit(span)
                spans.extra[YIELD_COUNTERS.get(name, f"{name}.yielded")] += 1
                yield item
        finally:
            inner.close()

    return wrapper


YIELD_COUNTERS = {"covers.iter_connected_coverings": "covers.iter_connected_coverings.classes"}

WRAPPERS = {TIME: _timed, COUNT: _counted, GEN: _generator}


def _bindings(function) -> list[tuple[object, str]]:
    """Every module attribute, in any loaded module, bound to ``function``."""
    found = []
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None) or {}
        found.extend((module, key) for key, value in list(namespace.items()) if value is function)
    return found


class Tracer:
    """Context manager that installs the wrappers and restores every binding."""

    def __init__(self, targets=TARGETS, clock=perf_counter):
        self.targets = targets
        self.spans = Spans(clock)
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, name, mode in self.targets:
                module = sys.modules[module_name]
                if "." in attr:  # a method: its one binding is the class attribute
                    class_name, method = attr.split(".")
                    owner = getattr(module, class_name)
                    original = owner.__dict__[method]
                    bindings = [(owner, method)]
                else:
                    original = getattr(module, attr)
                    bindings = _bindings(original)
                wrapper = WRAPPERS[mode](self.spans, name, original)
                for owner, key in bindings:
                    self._bind(owner, key, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _bind(self, owner, key: str, wrapper) -> None:
        self._patched.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)


def layer_metrics(spans: Spans) -> dict[str, float]:
    """Every per-layer metric that one traced pass determines.

    ``cli.import_s`` and ``trace.overhead`` are measured outside a pass and
    are filled in by the caller.
    """
    self_s = dict(spans.self_s)
    degree_spans = [k for k in self_s if k.startswith("covers.iter_connected_coverings.d")]
    self_s["covers.iter_connected_coverings"] = sum((self_s[k] for k in degree_spans), 0.0)
    tried = spans.extra["covers.full_cycle_coverings.tried"]
    extra = dict(spans.extra)
    extra["covers.full_cycle_coverings.yield_ratio"] = (
        extra.get("covers.full_cycle_coverings.yielded", 0) / tried if tried else 0.0
    )
    values = {}
    for metric in METRICS:
        name = metric["name"]
        if name in ("cli.import_s", "trace.overhead"):
            continue
        if name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".s"):
            values[name] = self_s.get(name[: -len(".s")], 0.0)
        elif name.endswith(".calls"):
            values[name] = spans.calls[name[: -len(".calls")]]
        else:
            values[name] = extra.get(name, 0)
    return values

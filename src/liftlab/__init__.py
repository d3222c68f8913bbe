"""liftlab: exact finite models of lifting dynamics over circles and roses."""

# The benchmark's tracer test (perfbench/tests/test_trace.py) checks that the
# tracer also patches this by-name binding; every other caller imports the
# submodules.
from .lifting import deck_search  # noqa: F401

__version__ = "0.1.0"

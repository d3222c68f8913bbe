"""Host-speed sampling: the arithmetic of wall_ref and the handler's lifetime."""

import signal
from time import perf_counter

import pytest

import hostspeed


def test_reference_units_take_out_handler_time_and_weight_by_speed():
    sampler = hostspeed.Sampler()
    sampler.samples[:] = [0.001, 0.002]  # the host ran at speeds 1000/s and 500/s
    sampler.stolen = 0.5
    # 2.5 s of calls, 0.5 s of it in the handler: 2 s at a mean speed of 750/s
    assert sampler.reference_units(2.5) == pytest.approx(1500.0)


def test_no_sample_is_an_error_not_a_number():
    with pytest.raises(ValueError):
        hostspeed.Sampler().reference_units(1.0)


def test_samples_while_armed_and_restores_the_previous_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler()
    with sampler:
        started = perf_counter()
        while perf_counter() - started < 0.2:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 5
    assert 0 < sampler.stolen < 0.2
    assert all(0 < t <= sampler.stolen for t in sampler.samples)
    sampler.reset()
    assert (sampler.samples, sampler.stolen) == ([], 0.0)

"""The machine-speed sampler."""

import signal
import time

import pytest

import calibrate


def test_speed_sampler_samples_during_the_call_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = calibrate.SpeedSampler("interpreter", interval_s=0.05)
    with sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.4:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.samples) >= 4
    assert 0 < sampler.inside_s < 0.4
    mean = sum(sampler.samples) / len(sampler.samples)
    assert sampler.scale(2.0) == pytest.approx(2.0 * sampler.reference_s / mean)

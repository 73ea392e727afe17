"""The serve_closed sampler ends its child, cleans up, and scales by the
slices taken in a pass's window."""

import os
import time

import pytest

from solverbench.calibrate import REFERENCE_S, Sampler


def test_sampler_stops_its_child_and_reads_its_slices(tmp_path):
    sampler = Sampler(str(tmp_path))
    started = time.monotonic()
    time.sleep(0.6)
    ended = time.monotonic()
    sampler.stop()
    assert sampler._proc is None
    assert os.listdir(tmp_path) == []
    assert sampler.slices and all(cpu > 0 for _at, cpu in sampler.slices)
    inside = [cpu for at, cpu in sampler.slices if started <= at <= ended]
    assert inside
    assert sampler.factor(started, ended) == pytest.approx(
        REFERENCE_S * len(inside) / sum(inside))
    # a window with no slice of its own takes the factor of all of them
    everything = [cpu for _at, cpu in sampler.slices]
    assert sampler.factor(0.0, 0.0) == pytest.approx(
        REFERENCE_S * len(everything) / sum(everything))

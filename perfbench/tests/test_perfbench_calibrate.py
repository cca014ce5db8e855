"""Calibration: each request is scaled by the kernel bursts around it."""

import pytest

from perfbench.calibrate import NEIGHBOURS, REFERENCE_S, Calibrator, factors


def test_a_steady_host_scales_every_request_alike():
    assert factors([2 * REFERENCE_S] * 8) == pytest.approx([0.5] * 8)


def test_a_request_is_scaled_by_the_median_of_its_neighbours():
    bursts = [REFERENCE_S] * 6 + [2 * REFERENCE_S] * 6
    scale = factors(bursts)
    assert NEIGHBOURS == 5
    assert scale[0] == pytest.approx(1.0)  # window 0-4, clamped at the start
    assert scale[5] == pytest.approx(1.0)  # window 3-7: two slow bursts
    assert scale[6] == pytest.approx(0.5)  # window 4-8: three slow bursts
    assert scale[11] == pytest.approx(0.5)  # window 7-11, clamped at the end
    assert len(scale) == len(bursts)


def test_fewer_bursts_than_neighbours_use_them_all():
    assert factors([REFERENCE_S, 3 * REFERENCE_S]) == pytest.approx([0.5, 0.5])


def test_a_burst_times_the_kernel():
    assert 0 < Calibrator().burst() < 10

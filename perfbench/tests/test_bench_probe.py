import time

import pytest

import probe


def test_timer_rescales_each_operation_by_the_probes_around_it(monkeypatch):
    readings = iter([0.02, 0.06, 0.04])
    monkeypatch.setattr(probe, "speed_probe", lambda: next(readings))
    timer = probe.Timer()
    assert timer.time(lambda: time.sleep(0.05) or "a") == "a"
    first = timer.raw
    timer.time(lambda: time.sleep(0.05))
    second = timer.raw - first
    # probes 0.02 and 0.06 average to the reference 0.04; 0.06 and 0.04 average to 0.05
    assert timer.normalized == pytest.approx(first + second * 0.04 / 0.05)


def test_probe_does_fixed_work():
    assert 0 < probe.speed_probe() < 5


def test_rescaled_scales_times_and_rates_but_not_counts():
    values = {"x.self_s": 2.0, "x.points_per_s": 100.0, "x.calls": 7}
    assert probe.rescaled(values, 0.5) == {"x.self_s": 1.0, "x.points_per_s": 200.0, "x.calls": 7}

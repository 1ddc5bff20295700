"""Tests of the calibrated clock: python3 -m pytest bench/test_calibration.py"""

import time

import calibration


def test_intervals_scale_by_the_mean_of_neighbouring_speed_factors(monkeypatch):
    refs = iter([calibration.NOMINAL_REF_S * 2, calibration.NOMINAL_REF_S, calibration.NOMINAL_REF_S / 2])
    monkeypatch.setattr(calibration, "reference_s", lambda: next(refs))
    slow, fast = 0.5 ** calibration.SLOWDOWN_EXPONENT, 2.0 ** calibration.SLOWDOWN_EXPONENT
    clock = calibration.CalibratedClock()
    assert clock.factor == slow
    time.sleep(0.01)
    clock.tick(force=True)  # factor 1.0: interval scaled by (slow + 1.0) / 2
    first = clock.raw_s
    assert abs(clock.calibrated_s - (slow + 1) / 2 * first) < 1e-12
    time.sleep(0.01)
    clock.tick(force=True)  # factor fast: interval scaled by (1.0 + fast) / 2
    assert abs(clock.calibrated_s - ((slow + 1) / 2 * first
                                     + (1 + fast) / 2 * (clock.raw_s - first))) < 1e-12
    assert clock.factors == [slow, 1.0, fast]


def test_tick_samples_at_most_every_interval(monkeypatch):
    calls = []
    monkeypatch.setattr(calibration, "reference_s", lambda: calls.append(1) or calibration.NOMINAL_REF_S)
    clock = calibration.CalibratedClock()
    for _ in range(100):
        clock.tick()
    assert len(calls) == 1 and clock.raw_s == 0.0
    clock.tick(force=True)
    assert len(calls) == 2 and clock.calibrated_s == clock.raw_s > 0


def test_reference_loop_takes_about_a_millisecond():
    assert 1e-5 < calibration.reference_s() < 0.1

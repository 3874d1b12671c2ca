"""Unit tests for the simulation kernel's crash injection."""

import pytest

from repro.errors import CrashError
from repro.sim.crash import CrashInjector, CrashPoint


class TestCrashInjector:
    def test_unarmed_never_fires(self):
        injector = CrashInjector()
        for _ in range(100):
            injector.tick(CrashPoint.AFTER_DATA_WRITE)
        assert not injector.fired

    def test_fires_immediately_when_armed_at_zero(self):
        injector = CrashInjector()
        injector.arm(after_events=0)
        with pytest.raises(CrashError):
            injector.tick(CrashPoint.AFTER_DATA_WRITE)
        assert injector.fired

    def test_countdown(self):
        injector = CrashInjector()
        injector.arm(after_events=2)
        injector.tick(CrashPoint.AFTER_DATA_WRITE)
        injector.tick(CrashPoint.AFTER_DATA_WRITE)
        with pytest.raises(CrashError):
            injector.tick(CrashPoint.AFTER_DATA_WRITE)

    def test_point_filter(self):
        injector = CrashInjector()
        injector.arm(after_events=0, at=CrashPoint.AFTER_LOG_FLUSH)
        injector.tick(CrashPoint.AFTER_DATA_WRITE)  # ignored: wrong point
        assert not injector.fired
        with pytest.raises(CrashError):
            injector.tick(CrashPoint.AFTER_LOG_FLUSH)

    def test_fires_only_once(self):
        injector = CrashInjector()
        injector.arm(after_events=0)
        with pytest.raises(CrashError):
            injector.tick(CrashPoint.BEFORE_DATA_WRITE)
        injector.tick(CrashPoint.BEFORE_DATA_WRITE)  # disarmed now
        assert injector.fired

    def test_disarm(self):
        injector = CrashInjector()
        injector.arm(after_events=0)
        injector.disarm()
        injector.tick(CrashPoint.AFTER_CHECKPOINT)
        assert not injector.fired

    def test_negative_countdown_rejected(self):
        injector = CrashInjector()
        with pytest.raises(ValueError):
            injector.arm(after_events=-1)

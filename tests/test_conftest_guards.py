"""The suite-wide guards of tests/conftest.py do what they promise."""

import signal
import time

import pytest

from .conftest import TEST_TIMEOUT_S, alarm_after


def test_alarm_fails_a_hung_body_and_rearms_the_enclosing_alarm():
    started = time.monotonic()
    with pytest.raises(pytest.fail.Exception, match="hung body exceeded"):
        with alarm_after(1, "hung body"):
            time.sleep(30)
    assert time.monotonic() - started < 10
    # The autouse fixture's own alarm for this test is pending again.
    remaining = signal.alarm(0)
    signal.alarm(remaining)
    assert 0 < remaining <= TEST_TIMEOUT_S

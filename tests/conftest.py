"""Shared test fixtures."""

import signal

import pytest

DEADLINE_S = 5.0


@pytest.fixture()
def deadline():
    """Fail the test, instead of hanging the run, once it has taken
    DEADLINE_S seconds of wall time (SIGALRM, so POSIX only)."""
    def expire(signum, frame):
        pytest.fail(f"test still running after its {DEADLINE_S} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)

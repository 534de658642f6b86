"""A wall-clock bound for a block of test code, shared by the test files."""

import signal
from contextlib import contextmanager


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block after the given wall-clock time."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
